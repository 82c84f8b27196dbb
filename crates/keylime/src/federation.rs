//! Sharded verifier federation: many verifier instances, one fleet.
//!
//! The paper's scaling wall is a single verifier appraising an
//! ever-growing fleet on a fixed cadence. [`Federation`] splits the
//! fleet across N shards — each a full [`Verifier`] + [`FleetScheduler`]
//! pair with its own worker pool — placed by a consistent-hash
//! [`HashRing`] over [`AgentId`]s, and merges per-shard
//! [`RoundReport`]s and [`MetricsSnapshot`]s back into one fleet-level
//! view with conserved counters.
//!
//! **One store, many verifiers.** The coordinator owns one
//! [`PolicyStore`]: a policy (or delta) is published exactly once
//! fleet-wide, then every shard adopts the *same* `Arc<RuntimePolicy>`
//! snapshot via [`Verifier::publish_policy_arc`] — zero per-shard
//! copies, and every shard's internal epoch advances in lockstep with
//! the store's (each publish bumps both by exactly one). Which agents
//! lag is read off the round report: each row carries the epoch that
//! agent appraised against, and [`RoundReport::epoch_converged`] is the
//! fleet-wide cut.
//!
//! **Replay independence.** Transport lanes are assigned from the
//! *fleet-wide* sorted enrolment order and handed to each shard in its
//! command list, so the fault stream an agent sees under a
//! [`crate::chaos::FaultPlan`] is a pure function of (plan, fleet
//! membership) — not of how many shards the fleet happens to be split
//! into. A one-shard federation produces bit-identical traces to a
//! plain [`Cluster`](crate::Cluster) round, and any shard count
//! produces bit-identical traces to any other.
//!
//! **Shard failure.** [`Federation::run_round_with_kill`] models a
//! shard dying at the start of a round: survivors complete their rounds
//! untouched, the coordinator removes the dead shard from the ring
//! (moving *only* its agents — consistent hashing), migrates each
//! orphaned record (enrolment constants + full
//! [`AgentStateSnapshot`](crate::AgentStateSnapshot) + the exact policy
//! `Arc` it held) onto its new shard, and runs a catch-up sub-round
//! over exactly the migrated agents at the *same* round number and
//! lanes. The merged fleet report still carries one result per
//! enrolled agent — nobody silently skipped — and equals the no-kill
//! trace bit for bit, because fault decisions depend only on (round,
//! lane, attempt) and each agent is still fetched exactly once on its
//! own lane.

use std::collections::BTreeMap;
use std::sync::Arc;

use cia_wire::{DuplexShardTransport, ShardTransport, TcpShardTransport};
use parking_lot::RaceCell;

use crate::agent::Agent;
use crate::config::VerifierConfig;
use crate::ids::AgentId;
use crate::policy::{PolicyDelta, RuntimePolicy};
use crate::remote;
use crate::ring::HashRing;
use crate::scheduler::{AgentRoundResult, FleetScheduler, MetricsSnapshot, RoundReport};
use crate::store::{PolicyEpoch, PolicyStore};
use crate::transport::Transport;
use crate::verifier::{HealthCounts, Verifier};

/// Which transport a [`Federation`] drives its shard rounds over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardTransportKind {
    /// Direct in-process calls into each shard's scheduler — the
    /// identity transport, no wire boundary.
    #[default]
    InProc,
    /// In-memory duplex channels carrying fully-framed binary RPC (see
    /// [`crate::remote`]): the whole codec path without a socket.
    Duplex,
    /// TCP loopback sockets, one connection per shard.
    Tcp,
}

/// How a [`Federation`] is laid out.
#[derive(Debug, Clone)]
pub struct FederationConfig {
    /// Number of verifier shards (minimum 1).
    pub shards: u32,
    /// Virtual points per shard on the consistent-hash ring.
    pub replicas: u32,
    /// The per-shard verifier/scheduler configuration.
    pub verifier: VerifierConfig,
    /// The coordinator↔shard transport for federated rounds.
    pub transport: ShardTransportKind,
    /// Command batches kept in flight per shard on a wire transport
    /// (see [`crate::remote::drive_round`]); ignored in-process.
    pub wire_window: usize,
}

impl FederationConfig {
    /// `shards` shards with default ring replicas and `verifier` config,
    /// driven in-process.
    pub fn new(shards: u32, verifier: VerifierConfig) -> Self {
        FederationConfig {
            shards: shards.max(1),
            replicas: crate::ring::DEFAULT_REPLICAS,
            verifier,
            transport: ShardTransportKind::InProc,
            wire_window: remote::DEFAULT_WIRE_WINDOW,
        }
    }

    /// Same layout, driven over `transport`.
    pub fn with_transport(mut self, transport: ShardTransportKind) -> Self {
        self.transport = transport;
        self
    }

    /// Sets the per-shard in-flight command-batch window for wire
    /// transports (floored to 1 at use).
    pub fn with_wire_window(mut self, window: usize) -> Self {
        self.wire_window = window;
        self
    }
}

/// One shard: a verifier and the scheduler that drives it.
struct Shard {
    verifier: Verifier,
    scheduler: FleetScheduler,
}

impl Shard {
    fn new(config: VerifierConfig) -> Self {
        Shard {
            verifier: Verifier::new(config),
            scheduler: FleetScheduler::new(),
        }
    }
}

/// The outcome of one federated round: the merged fleet-level report
/// plus each live shard's own slice of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FederatedRoundReport {
    /// One result per enrolled agent, fleet-wide, sorted by id.
    pub fleet: RoundReport,
    /// Per-shard reports (shard index ascending): each shard's results
    /// sorted by id, with health counts over the records that shard
    /// holds *after* the round (including any just-migrated agents).
    pub per_shard: Vec<(u32, RoundReport)>,
}

impl FederatedRoundReport {
    /// Number of live shards that contributed.
    pub fn shard_count(&self) -> usize {
        self.per_shard.len()
    }
}

/// The coordinator: owns the shards, the ring, and the shared store.
/// See the module docs.
pub struct Federation {
    ring: HashRing,
    shards: BTreeMap<u32, Shard>,
    store: PolicyStore,
    /// Metrics folded out of killed shards, so the fleet-level snapshot
    /// never loses the work a dead shard already did. Audited by the
    /// race detector: the accumulator may only be touched by the
    /// coordinator, ordered against shard-thread work through the
    /// scoped-round join edges.
    retired: RaceCell<MetricsSnapshot>,
    /// The layout this federation was built with — kept so joining
    /// shards ([`Federation::add_shard`]) and wire rounds reuse it.
    config: FederationConfig,
}

impl Federation {
    /// A federation of `config.shards` empty shards over `store`.
    fn new(config: FederationConfig, store: PolicyStore) -> Self {
        let mut ring = HashRing::with_replicas(config.replicas);
        let mut shards = BTreeMap::new();
        for sid in 0..config.shards.max(1) {
            ring.add_shard(sid);
            shards.insert(sid, Shard::new(config.verifier));
        }
        Federation {
            ring,
            shards,
            store,
            retired: RaceCell::new(MetricsSnapshot::default()).named("retired-metrics"),
            config,
        }
    }

    /// Re-shards an existing single verifier into a federation: the
    /// source's store snapshot/epoch seed the shared store, and a clone
    /// of every record (which shares the exact policy handle the record
    /// holds) is placed onto its ring shard. The source is not consumed
    /// — the caller decides when to stop driving it.
    pub fn from_verifier(source: &Verifier, config: FederationConfig) -> Self {
        let shared = source.policy_store().shared();
        let mut fed = Federation::new(
            config,
            PolicyStore::restore(Arc::clone(&shared.snapshot), shared.epoch),
        );
        for shard in fed.shards.values_mut() {
            shard
                .verifier
                .restore_store(Arc::clone(&shared.snapshot), shared.epoch);
        }
        for (id, record) in source.records() {
            let Some(shard) = fed.ring.place(id).and_then(|sid| fed.shards.get_mut(&sid)) else {
                debug_assert!(false, "a federation ring is never empty");
                continue;
            };
            shard.verifier.put_record(id.clone(), record.clone());
        }
        fed
    }

    /// Number of live shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Live shard indices, ascending.
    pub fn shard_ids(&self) -> Vec<u32> {
        self.shards.keys().copied().collect()
    }

    /// The shard `id` is placed on.
    pub fn placement(&self, id: &AgentId) -> Option<u32> {
        self.ring.place(id)
    }

    /// The fleet-wide shared policy store.
    pub fn store(&self) -> &PolicyStore {
        &self.store
    }

    /// Every enrolled agent id, fleet-wide, sorted.
    pub fn agent_ids(&self) -> Vec<AgentId> {
        let mut ids: Vec<AgentId> = self
            .shards
            .values()
            .flat_map(|s| s.verifier.agent_ids())
            .collect();
        ids.sort();
        ids
    }

    /// Total enrolled agents across all shards.
    pub fn agent_count(&self) -> usize {
        self.shards
            .values()
            .map(|s| s.verifier.agent_ids().len())
            .sum()
    }

    /// Publishes a full policy once fleet-wide: one new store epoch,
    /// then every shard adopts the same snapshot `Arc` (zero copies).
    pub fn publish_policy(&mut self, policy: RuntimePolicy) -> PolicyEpoch {
        let epoch = self.store.publish(policy);
        self.distribute(epoch);
        epoch
    }

    /// Publishes a delta once fleet-wide (the store's copy-on-write /
    /// zero-copy path), then every shard adopts the resulting snapshot
    /// `Arc`. The delta is applied exactly once no matter how many
    /// shards exist.
    pub fn publish_delta(&mut self, delta: &PolicyDelta) -> (PolicyEpoch, usize) {
        let (epoch, applied) = self.store.publish_delta(delta);
        self.distribute(epoch);
        (epoch, applied)
    }

    fn distribute(&mut self, epoch: PolicyEpoch) {
        let snapshot = self.store.snapshot();
        for shard in self.shards.values_mut() {
            let shard_epoch = shard.verifier.publish_policy_arc(Arc::clone(snapshot));
            debug_assert_eq!(
                shard_epoch, epoch,
                "shard epochs advance in lockstep with the store"
            );
        }
    }

    /// The command list of a full federated round, split by shard: every
    /// live shard's enrolled ids, each at its position in the
    /// *fleet-wide* sorted enrolment order — exactly the lane a single
    /// un-sharded verifier would assign it, which is what makes traces
    /// shard-count independent. Every live shard has an entry, so an
    /// empty shard still runs (and counts) its round.
    fn commands_by_shard(&self) -> BTreeMap<u32, Vec<(AgentId, u64)>> {
        let mut placed: Vec<(AgentId, u32)> = self
            .shards
            .iter()
            .flat_map(|(&sid, shard)| {
                let ids = shard.verifier.agent_ids();
                ids.into_iter().map(move |id| (id, sid))
            })
            .collect();
        placed.sort();
        let mut commands: BTreeMap<u32, Vec<(AgentId, u64)>> =
            self.shards.keys().map(|&sid| (sid, Vec::new())).collect();
        for ((id, sid), lane) in placed.into_iter().zip(0u64..) {
            commands.entry(sid).or_default().push((id, lane));
        }
        commands
    }

    /// Runs one federated round: every shard's round runs concurrently
    /// (each with its own worker pool), then the per-shard reports merge
    /// into the fleet-level report.
    ///
    /// The coordinator↔shard path is chosen by
    /// [`FederationConfig::transport`]: direct in-process dispatch, or
    /// the binary wire protocol of [`crate::remote`] over in-memory
    /// duplex channels or TCP loopback sockets. All three produce
    /// bit-identical reports — the wire boundary changes mechanics, not
    /// outcomes.
    pub fn run_round<T>(&mut self, agents: &mut [Agent], transport: &T) -> FederatedRoundReport
    where
        T: Transport + Sync,
    {
        let commands = self.commands_by_shard();
        let results = self.fan_out(agents, transport, commands);
        self.finish_report(results)
    }

    /// The one shard fan-out: every shard named in `commands` runs the
    /// round engine over its command list, concurrently, with the agent
    /// processes the ring places on it. Returns each shard's result
    /// rows. In-process, a shard thread calls straight into its
    /// scheduler, whose workers pull from the shard's list; over a wire
    /// transport it runs [`wire_round`] instead, and the same workers
    /// pull from the decoded `Poll` stream.
    fn fan_out<T>(
        &mut self,
        agents: &mut [Agent],
        transport: &T,
        mut commands: BTreeMap<u32, Vec<(AgentId, u64)>>,
    ) -> BTreeMap<u32, Vec<AgentRoundResult>>
    where
        T: Transport + Sync,
    {
        let mut pools: BTreeMap<u32, Vec<&mut Agent>> = BTreeMap::new();
        for agent in agents.iter_mut() {
            if let Some(sid) = self.ring.place(agent.id()) {
                pools.entry(sid).or_default().push(agent);
            }
        }
        let kind = self.config.transport;
        let window = self.config.wire_window;
        let mut results: BTreeMap<u32, Vec<AgentRoundResult>> = BTreeMap::new();
        crossbeam::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (&sid, shard) in self.shards.iter_mut() {
                let Some(commands) = commands.remove(&sid) else {
                    continue;
                };
                let pool = pools.remove(&sid).unwrap_or_default();
                let round = move || match kind {
                    ShardTransportKind::InProc => {
                        shard
                            .scheduler
                            .run_round_streamed(
                                &mut shard.verifier,
                                pool.into_iter(),
                                transport,
                                commands.into_iter(),
                                |_| {},
                            )
                            .results
                    }
                    ShardTransportKind::Duplex => {
                        let conns = DuplexShardTransport::pair();
                        wire_round(shard, pool, transport, &commands, conns, window)
                    }
                    ShardTransportKind::Tcp => {
                        let conns =
                            remote::require(TcpShardTransport::loopback_pair(), "tcp loopback");
                        wire_round(shard, pool, transport, &commands, conns, window)
                    }
                };
                handles.push((sid, scope.spawn(round)));
            }
            for (sid, handle) in handles {
                match handle.join() {
                    Ok(rows) => results.insert(sid, rows),
                    Err(payload) => std::panic::resume_unwind(payload),
                };
            }
        });
        results
    }

    /// Adds an empty shard to a live federation: the new verifier
    /// adopts the store's current snapshot/epoch, joins the ring, and —
    /// consistent hashing's promise — *only* the agents whose placement
    /// now maps to the new shard migrate onto it, each record moved
    /// whole; nobody else moves. Returns the migrated ids, sorted.
    /// No-op returning empty when `shard` is already live.
    pub fn add_shard(&mut self, shard: u32) -> Vec<AgentId> {
        if self.shards.contains_key(&shard) {
            return Vec::new();
        }
        let mut joined = Shard::new(self.config.verifier);
        joined
            .verifier
            .restore_store(Arc::clone(self.store.snapshot()), self.store.epoch());
        self.ring.add_shard(shard);

        // Everything whose ring placement moved to the joining shard.
        let mut migrated = Vec::new();
        for source in self.shards.values_mut() {
            let moving: Vec<AgentId> = source
                .verifier
                .records()
                .map(|(id, _)| id)
                .filter(|id| self.ring.place(id) == Some(shard))
                .cloned()
                .collect();
            for id in moving {
                if let Some(record) = source.verifier.take_record(&id) {
                    joined.verifier.put_record(id.clone(), record);
                    migrated.push(id);
                }
            }
        }
        self.shards.insert(shard, joined);
        migrated.sort();
        migrated
    }

    /// Runs one federated round during which shard `kill` dies at round
    /// start: it produces no results, survivors run untouched, then the
    /// coordinator rebalances the dead shard's agents onto survivors
    /// (consistent-hash ring remove — nobody else moves) and drives a
    /// catch-up sub-round over exactly the migrated agents at the same
    /// lanes. The merged report conserves every enrolled agent.
    ///
    /// Returns the report and the migrated agent ids (sorted).
    ///
    /// # Panics
    ///
    /// When `kill` is not a live shard, or is the only shard left.
    pub fn run_round_with_kill<T>(
        &mut self,
        agents: &mut [Agent],
        transport: &T,
        kill: u32,
    ) -> (FederatedRoundReport, Vec<AgentId>)
    where
        T: Transport + Sync,
    {
        assert!(self.shards.contains_key(&kill), "unknown shard {kill}");
        assert!(self.shards.len() > 1, "cannot kill the only shard");

        // Commands (and so lanes) are taken over the full fleet *before*
        // the kill, so every agent keeps the lane the no-kill round
        // would use. Survivors run their own slices — the dead shard
        // contributes nothing.
        let mut commands = self.commands_by_shard();
        let dead_commands = commands.remove(&kill).unwrap_or_default();
        let mut results = self.fan_out(agents, transport, commands);

        // Rebalance: ring-remove the dead shard and migrate its records.
        let migrated = self.kill_shard(kill);

        // Catch-up sub-round: each surviving shard polls exactly the
        // agents it just inherited, at their pre-kill lanes in the same
        // chaos round — the fault stream each migrated agent sees is
        // exactly the one the no-kill round would have dealt it.
        let mut catchup: BTreeMap<u32, Vec<(AgentId, u64)>> = BTreeMap::new();
        for (id, lane) in dead_commands {
            if let Some(sid) = self.ring.place(&id) {
                catchup.entry(sid).or_default().push((id, lane));
            }
        }
        for (sid, rows) in self.fan_out(agents, transport, catchup) {
            results.entry(sid).or_default().extend(rows);
        }

        (self.finish_report(results), migrated)
    }

    /// Removes `shard` from the federation outside a round: its metrics
    /// fold into the retired accumulator and each of its records moves,
    /// whole, to its new ring placement (so a quarantined agent stays
    /// pinned on the snapshot it acknowledged). Returns the migrated
    /// ids, sorted. No-op returning empty when `shard` is not live.
    ///
    /// # Panics
    ///
    /// When `shard` is the only shard left — a federation cannot place
    /// agents on an empty ring.
    pub fn kill_shard(&mut self, shard: u32) -> Vec<AgentId> {
        if !self.shards.contains_key(&shard) {
            return Vec::new();
        }
        assert!(self.shards.len() > 1, "cannot kill the only shard");
        let Some(dead) = self.shards.remove(&shard) else {
            return Vec::new();
        };
        self.ring.remove_shard(shard);
        let folded = self.retired.get().merged(&dead.scheduler.snapshot());
        self.retired.set(folded);

        let mut dead = dead.verifier;
        let mut migrated = Vec::new();
        // Ids come out of the dead shard's map in order, so `migrated`
        // is born sorted.
        for id in dead.agent_ids() {
            let target = self
                .ring
                .place(&id)
                .and_then(|sid| self.shards.get_mut(&sid));
            let (Some(target), Some(record)) = (target, dead.take_record(&id)) else {
                debug_assert!(false, "survivors remain on the ring");
                continue;
            };
            target.verifier.put_record(id.clone(), record);
            migrated.push(id);
        }
        migrated
    }

    /// Fleet-level health: each record lives on exactly one shard, so
    /// the sum counts every agent once.
    pub fn fleet_health(&self) -> HealthCounts {
        let mut health = HealthCounts::default();
        for shard in self.shards.values() {
            let counts = shard.verifier.health_counts();
            health.healthy += counts.healthy;
            health.degraded += counts.degraded;
            health.quarantined += counts.quarantined;
            health.recovering += counts.recovering;
        }
        health
    }

    /// The fleet-level metrics snapshot: the component-wise merge of
    /// every live shard's totals plus everything folded out of killed
    /// shards. Conserved whenever the shard snapshots are — the
    /// identity is linear (see [`MetricsSnapshot::merged`]).
    pub fn fleet_metrics(&self) -> MetricsSnapshot {
        let mut snap = self.retired.get().clone();
        for shard in self.shards.values() {
            snap = snap.merged(&shard.scheduler.snapshot());
        }
        snap
    }

    /// Each live shard's own metrics snapshot, shard index ascending.
    pub fn shard_metrics(&self) -> Vec<(u32, MetricsSnapshot)> {
        self.shards
            .iter()
            .map(|(&sid, shard)| (sid, shard.scheduler.snapshot()))
            .collect()
    }

    /// Assembles the fleet + per-shard reports from each shard's result
    /// rows. Health is read from the shard verifiers *after* the round
    /// (and after any migration), so every agent is counted exactly
    /// once.
    fn finish_report(
        &self,
        mut results: BTreeMap<u32, Vec<AgentRoundResult>>,
    ) -> FederatedRoundReport {
        let epoch = self.store.epoch();
        let mut fleet_results: Vec<AgentRoundResult> = Vec::new();
        let mut per_shard = Vec::with_capacity(self.shards.len());
        for (&sid, shard) in &self.shards {
            let mut shard_results = results.remove(&sid).unwrap_or_default();
            shard_results.sort_by(|a, b| a.id.cmp(&b.id));
            fleet_results.extend(shard_results.iter().cloned());
            per_shard.push((
                sid,
                RoundReport {
                    results: shard_results,
                    health: shard.verifier.health_counts(),
                    policy_epoch: epoch,
                },
            ));
        }
        fleet_results.sort_by(|a, b| a.id.cmp(&b.id));
        FederatedRoundReport {
            fleet: RoundReport {
                results: fleet_results,
                health: self.fleet_health(),
                policy_epoch: epoch,
            },
            per_shard,
        }
    }
}

/// One shard's round behind a wire connection of the binary RPC
/// protocol: a *server* thread runs the shard event loop
/// ([`remote::serve_round`] — reader, round engine, batching writer)
/// while the calling thread plays the coordinator
/// ([`remote::drive_round`] — batched, windowed commands). The rows
/// returned are the **driver side's decoded rows**, so everything in the
/// merged report round-tripped the codec; equivalence with the server's
/// own report is debug-asserted.
fn wire_round<T, C>(
    shard: &mut Shard,
    pool: Vec<&mut Agent>,
    transport: &T,
    commands: &[(AgentId, u64)],
    (server_conn, driver_conn): (C, C),
    window: usize,
) -> Vec<AgentRoundResult>
where
    T: Transport + Sync,
    C: ShardTransport + Send,
{
    let wire_batch = shard.verifier.config().wire_batch;
    let Shard {
        verifier,
        scheduler,
    } = shard;
    crossbeam::thread::scope(|scope| {
        let server = scope.spawn(move || {
            remote::serve_round(
                scheduler,
                verifier,
                pool.into_iter(),
                transport,
                server_conn,
            )
        });
        let driven = remote::require(
            remote::drive_round(driver_conn, commands, wire_batch, window),
            "shard wire driver",
        );
        let report = match server.join() {
            Ok(res) => remote::require(res, "shard wire server"),
            Err(payload) => std::panic::resume_unwind(payload),
        };
        debug_assert_eq!(driven.health, report.health, "shard health drifted");
        debug_assert_eq!(driven.epoch, report.policy_epoch, "shard epoch drifted");
        debug_assert_eq!(
            {
                let mut sorted = driven.rows.clone();
                sorted.sort_by(|a, b| a.id.cmp(&b.id));
                sorted
            },
            report.results,
            "shard rows lost in transit"
        );
        driven.rows
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verifier::{AgentStateSnapshot, ReachClass};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    type Held = BTreeMap<AgentId, (Arc<RuntimePolicy>, AgentStateSnapshot)>;

    /// Every record sits on the shard the ring names, holding exactly
    /// the policy handle and state in `held`.
    fn assert_holds(fed: &Federation, held: &Held, when: &str) {
        assert_eq!(fed.agent_count(), held.len(), "{when}: record count");
        for (id, (policy, state)) in held {
            let shard = &fed.shards[&fed.placement(id).unwrap()];
            let record = shard.verifier.record(id).unwrap();
            assert!(Arc::ptr_eq(record.policy(), policy), "{when}: {id} handle");
            assert_eq!(record.state(), state, "{when}: {id} state");
        }
    }

    /// `from_verifier`, `add_shard` and `kill_shard` move records whole:
    /// the same policy `Arc` (current snapshot, a laggard's older
    /// snapshot, an override's private one) and an equal state.
    #[test]
    fn migrations_preserve_policy_handle_and_state() {
        let config = VerifierConfig::builder()
            .quarantine_after(2)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(15);
        let mut ak = || cia_crypto::KeyPair::generate(&mut rng).verifying;
        let mut source = Verifier::new(config);
        source.publish_policy(RuntimePolicy::new());
        for i in 0..24 {
            source.add_agent_shared(AgentId::numbered("node", i), ak());
        }
        let mut private = RuntimePolicy::new();
        private.allow("/opt/private", "aa");
        source.add_agent("override", ak(), private);
        // One agent is quarantined before a push, so it stays pinned on
        // the older snapshot.
        let laggard = AgentId::numbered("node", 7);
        let mut record = source.take_record(&laggard).unwrap();
        record.apply_health(ReachClass::Unreachable, &config);
        record.apply_health(ReachClass::Unreachable, &config);
        source.put_record(laggard.clone(), record);
        let mut pushed = RuntimePolicy::new();
        pushed.allow("/usr/bin/new", "bb");
        source.publish_policy(pushed);
        assert_ne!(
            source.agent_policy_epoch(&laggard).unwrap(),
            source.current_epoch()
        );

        let held: Held = source
            .records()
            .map(|(id, r)| (id.clone(), (Arc::clone(r.policy()), r.state().clone())))
            .collect();
        let mut fed = Federation::from_verifier(&source, FederationConfig::new(3, config));
        assert_holds(&fed, &held, "from_verifier");
        let lagging = fed.shards[&fed.placement(&laggard).unwrap()]
            .verifier
            .record(&laggard)
            .unwrap();
        assert!(
            lagging.state().policy_epoch < fed.store().epoch(),
            "the laggard's record still holds its older epoch"
        );

        let joined = fed.add_shard(3);
        assert!(!joined.is_empty(), "the new shard took over some agents");
        assert_holds(&fed, &held, "add_shard");

        let moved = fed.kill_shard(0);
        assert!(!moved.is_empty(), "the dead shard owned agents");
        assert_holds(&fed, &held, "kill_shard");
    }
}
