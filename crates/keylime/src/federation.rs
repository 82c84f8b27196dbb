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
//! snapshot via [`Verifier::publish_policy`] — zero per-shard
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
//! **Shard failure.** [`Federation::kill_shard`] removes a dead shard
//! from the ring (moving *only* its agents — consistent hashing) and
//! migrates each orphaned record (enrolment constants + full
//! [`AgentStateSnapshot`](crate::AgentStateSnapshot) + the exact policy
//! `Arc` it held) onto its new shard. A shard dying at the start of a
//! round is `kill_shard` followed by the ordinary
//! [`Federation::run_round`]: lanes come from the fleet-wide sorted
//! order, which a kill does not change, so the round still carries one
//! result per enrolled agent — nobody silently skipped — and equals the
//! no-kill trace bit for bit, because fault decisions depend only on
//! (round, lane, attempt).

use std::collections::BTreeMap;
use std::sync::Arc;

use cia_wire::{DuplexShardTransport, ShardTransport, TcpShardTransport};

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
    /// The per-shard verifier/scheduler configuration.
    pub verifier: VerifierConfig,
    /// The coordinator↔shard transport for federated rounds.
    pub transport: ShardTransportKind,
}

impl FederationConfig {
    /// `shards` shards with `verifier` config, driven in-process.
    pub fn new(shards: u32, verifier: VerifierConfig) -> Self {
        FederationConfig {
            shards: shards.max(1),
            verifier,
            transport: ShardTransportKind::InProc,
        }
    }

    /// Same layout, driven over `transport`.
    pub fn with_transport(mut self, transport: ShardTransportKind) -> Self {
        self.transport = transport;
        self
    }
}

/// One shard: a verifier and the scheduler that drives it.
struct Shard {
    verifier: Verifier,
    scheduler: FleetScheduler,
}

impl Shard {
    /// A shard whose verifier starts on `store`'s snapshot and epoch.
    fn new(config: VerifierConfig, store: &PolicyStore) -> Self {
        let mut verifier = Verifier::new(config);
        verifier.restore_store(Arc::clone(store.snapshot()), store.epoch());
        Shard {
            verifier,
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
    /// holds *after* the round.
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
    /// never loses the work a dead shard already did.
    retired: MetricsSnapshot,
    /// The layout this federation was built with — kept so joining
    /// shards ([`Federation::add_shard`]) and wire rounds reuse it.
    config: FederationConfig,
}

impl Federation {
    /// A federation of `config.shards` empty shards over `store`.
    fn new(config: FederationConfig, store: PolicyStore) -> Self {
        let mut ring = HashRing::new();
        let mut shards = BTreeMap::new();
        for sid in 0..config.shards.max(1) {
            ring.add_shard(sid);
            shards.insert(sid, Shard::new(config.verifier, &store));
        }
        Federation {
            ring,
            shards,
            store,
            retired: MetricsSnapshot::default(),
            config,
        }
    }

    /// Re-shards an existing single verifier into a federation: the
    /// source's store snapshot/epoch seed the shared store, and a clone
    /// of every record (which shares the exact policy handle the record
    /// holds) is placed onto its ring shard. The source is not consumed
    /// — the caller decides when to stop driving it.
    pub fn from_verifier(source: &Verifier, config: FederationConfig) -> Self {
        let mut fed = Federation::new(config, source.policy_store().clone());
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

    /// Publishes a delta once fleet-wide (copy-on-write: it copies only
    /// the chunks it touches), then every shard adopts the resulting snapshot
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
            let shard_epoch = shard.verifier.publish_policy(Arc::clone(snapshot));
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

    /// Runs one federated round: every live shard runs the round engine
    /// over its command list, concurrently (each with its own worker
    /// pool), with the agent processes the ring places on it; then the
    /// per-shard rows merge into the fleet-level report.
    ///
    /// The coordinator↔shard path is chosen by
    /// [`FederationConfig::transport`]. In-process, a shard thread calls
    /// straight into its scheduler, which runs the shard's list as one
    /// batch; over in-memory duplex channels or TCP loopback sockets it
    /// runs [`wire_round`] instead, and the same engine runs each decoded
    /// `Poll` frame as a batch. All three produce bit-identical reports —
    /// the wire boundary changes mechanics, not outcomes.
    pub fn run_round<T>(&mut self, agents: &mut [Agent], transport: &T) -> FederatedRoundReport
    where
        T: Transport + Sync,
    {
        let mut commands = self.commands_by_shard();
        let mut pools: BTreeMap<u32, Vec<&mut Agent>> = BTreeMap::new();
        for agent in agents.iter_mut() {
            if let Some(sid) = self.ring.place(agent.id()) {
                pools.entry(sid).or_default().push(agent);
            }
        }
        let kind = self.config.transport;
        let mut results: BTreeMap<u32, Vec<AgentRoundResult>> = BTreeMap::new();
        std::thread::scope(|scope| {
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
                                std::iter::once(commands),
                                |_| {},
                            )
                            .results
                    }
                    ShardTransportKind::Duplex => {
                        let conns = DuplexShardTransport::pair();
                        wire_round(shard, pool, transport, &commands, conns)
                    }
                    ShardTransportKind::Tcp => {
                        let conns =
                            remote::require(TcpShardTransport::loopback_pair(), "tcp loopback");
                        wire_round(shard, pool, transport, &commands, conns)
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
        self.finish_report(results)
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
        let mut joined = Shard::new(self.config.verifier, &self.store);
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
        self.retired = self.retired.merged(&dead.scheduler.snapshot());

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
        let mut snap = self.retired.clone();
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
    /// rows. Health is read from the shard verifiers *after* the round,
    /// so every agent is counted exactly once.
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
/// ([`remote::serve_round`] — a reader thread, and the round engine
/// answering each `Poll` frame with one `Results` frame) while the
/// calling thread plays the coordinator
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
) -> Vec<AgentRoundResult>
where
    T: Transport + Sync,
    C: ShardTransport + Send,
{
    let Shard {
        verifier,
        scheduler,
    } = shard;
    std::thread::scope(|scope| {
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
            remote::drive_round(
                driver_conn,
                commands,
                remote::DEFAULT_WIRE_BATCH,
                remote::DEFAULT_WIRE_WINDOW,
            ),
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
