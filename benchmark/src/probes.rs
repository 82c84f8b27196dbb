//! Per-layer probes: timed calls into one layer's public functions on
//! inputs captured from the workload (its policy snapshot, its agent
//! ids) or on two canned quote responses. They run in the traced run
//! only, after the workload's own loop.
//!
//! Each probe takes samples until it has at least [`MIN_SAMPLES`] and
//! [`PROBE_S`] seconds, and reports the median. Calls that take
//! nanoseconds are timed in batches, so the clock reads do not show.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cia_crypto::{Digest, HashAlgorithm};
use cia_ima::ImaLogEntry;
use cia_keylime::{
    drive_round, serve_round, Agent, AgentId, AgentRequest, AgentResponse, AgentRoundResult,
    AgentStateSnapshot, BackendKind, FleetScheduler, HashRing, PolicyCheck, PolicyEpoch,
    PolicyStore, QuoteResponse, Registrar, ReliableTransport, RoundOutcome, RuntimePolicy,
    Transport, Verifier, VerifierJournal, DEFAULT_JOURNAL_DIR, DEFAULT_WIRE_WINDOW,
};
use cia_os::Machine;
use cia_storage::LogStore;
use cia_tpm::Manufacturer;
use cia_vfs::{Vfs, VfsPath};
use cia_wire::{crc32, DuplexShardTransport, FrameSender, ShardTransport, Wire, WireError};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::gen::Inputs;
use crate::stats::median;
use crate::workloads::{install_and_run, Fleet, LANES};

/// Fewest samples behind any probe's median.
pub const MIN_SAMPLES: usize = 11;
/// Least time a probe keeps sampling.
pub const PROBE_S: f64 = 0.05;

/// Entries in the small canned quote response (a steady day's quote).
const SMALL_ENTRIES: usize = 5;
/// Entries in the large canned quote response (a cold backlog quote).
const LARGE_ENTRIES: usize = 10_000;
/// Agents behind the one-shard `remote` probe and the `registrar` probe.
const REMOTE_AGENTS: usize = 256;
/// Keys written by the `storage` probes.
const STORAGE_KEYS: usize = 4_096;

/// Median nanoseconds per call of `f`, timing `batch` calls per sample.
fn time_ns(batch: usize, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::new();
    let clock = Instant::now();
    while samples.len() < MIN_SAMPLES || clock.elapsed().as_secs_f64() < PROBE_S {
        let start = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(start.elapsed().as_nanos() as f64 / batch as f64);
    }
    median(&samples)
}

/// Like [`time_ns`] for calls that consume a prepared input: `prepare`
/// runs off the clock before every timed `f`.
fn time_prepared_ns<I>(mut prepare: impl FnMut() -> I, mut f: impl FnMut(I)) -> f64 {
    let mut samples = Vec::new();
    let clock = Instant::now();
    while samples.len() < MIN_SAMPLES || clock.elapsed().as_secs_f64() < PROBE_S {
        let input = prepare();
        let start = Instant::now();
        f(input);
        samples.push(start.elapsed().as_nanos() as f64);
    }
    median(&samples)
}

/// The named values the probes produce.
pub type Readings = Vec<(&'static str, f64)>;

/// A machine that has executed `entries` binaries, and its full
/// structured quote response.
fn canned_quote(inputs: &Inputs, entries: usize) -> (Agent, QuoteResponse) {
    let mut rng = StdRng::seed_from_u64(inputs.cluster_seed());
    let manufacturer = Manufacturer::generate(&mut rng);
    let mut machine = Machine::new(&manufacturer, inputs.machine(0));
    // boot_aggregate is the first entry of every log.
    for k in 0..entries - 1 {
        install_and_run(&mut machine, &inputs.backlog_binary(k));
    }
    let mut agent = Agent::new(machine);
    let response = agent.handle(quote_request());
    let AgentResponse::Quote(quote) = response else {
        panic!("a quote request yields a quote, got {response:?}");
    };
    assert_eq!(quote.total_entries(), entries);
    (agent, quote)
}

fn quote_request() -> AgentRequest {
    AgentRequest::Quote {
        nonce: b"benchmark-probe-nonce".to_vec(),
        from_entry: 0,
        structured: true,
    }
}

fn transport_roundtrip_ns(quote: &QuoteResponse) -> f64 {
    let mut transport = ReliableTransport::new();
    let request = quote_request();
    time_prepared_ns(
        || AgentResponse::Quote(quote.clone()),
        |response| {
            let back: AgentResponse = transport
                .call(&request, move |_| response)
                .expect("the reliable transport delivers");
            black_box(back);
        },
    )
}

fn transport_tpm_wire(inputs: &Inputs, out: &mut Readings) {
    let (mut small_agent, small) = canned_quote(inputs, SMALL_ENTRIES);
    let (large_agent, large) = canned_quote(inputs, LARGE_ENTRIES);

    out.push((
        "transport.roundtrip_small_us",
        transport_roundtrip_ns(&small) / 1e3,
    ));
    out.push((
        "transport.roundtrip_large_ms",
        transport_roundtrip_ns(&large) / 1e6,
    ));

    let selection = small.quote().selection;
    let nonce = small.quote().nonce.clone();
    let machine = small_agent.machine_mut();
    out.push((
        "tpm.quote_us",
        time_ns(1, || {
            let quote = machine
                .tpm
                .quote(&nonce, &selection, HashAlgorithm::Sha256)
                .expect("the probe TPM has an AK");
            black_box(quote);
        }) / 1e3,
    ));
    let ak = machine.tpm.ak_public().expect("AK created at boot").clone();
    let quote = small.quote();
    out.push((
        "tpm.quote_verify_us",
        time_ns(1, || assert!(black_box(quote).verify(&ak, &nonce))) / 1e3,
    ));

    let log = large_agent.machine().ima.log();
    out.push((
        "ima.replay_ns_per_entry",
        time_ns(1, || {
            black_box(log.replay(HashAlgorithm::Sha256));
        }) / log.len() as f64,
    ));
    let fresh_entries = || -> Vec<ImaLogEntry> {
        log.entries()
            .iter()
            .take(1_000)
            .map(|e| ImaLogEntry::new(e.filedata_hash, e.path.clone()))
            .collect()
    };
    out.push((
        "ima.template_hash_ns",
        time_prepared_ns(fresh_entries, |entries| {
            for entry in &entries {
                black_box(entry.template_hash(HashAlgorithm::Sha256));
            }
        }) / 1_000.0,
    ));

    for (quote, encode, decode, bytes, scale) in [
        (
            &small,
            "wire.encode_small_us",
            "wire.decode_small_us",
            "wire.bytes_small",
            1e3,
        ),
        (
            &large,
            "wire.encode_large_ms",
            "wire.decode_large_ms",
            "wire.bytes_large",
            1e6,
        ),
    ] {
        let encoded = quote.to_wire();
        out.push((
            encode,
            time_ns(1, || drop(black_box(quote.to_wire()))) / scale,
        ));
        out.push((
            decode,
            time_ns(1, || {
                let back = QuoteResponse::from_wire(black_box(&encoded)).expect("own encoding");
                black_box(back);
            }) / scale,
        ));
        out.push((bytes, encoded.len() as f64));
    }
}

fn crypto(out: &mut Readings) {
    let block = vec![0xa5u8; 1 << 20];
    let ns = time_ns(1, || {
        black_box(HashAlgorithm::Sha256.digest(black_box(&block)));
    });
    out.push((
        "crypto.sha256_mb_per_s",
        block.len() as f64 / 1e6 / (ns / 1e9),
    ));
    out.push((
        "crypto.sha256_64b_ns",
        time_ns(1_000, || {
            black_box(HashAlgorithm::Sha256.digest(black_box(&block[..64])));
        }),
    ));
    let ns = time_ns(1, || {
        black_box(crc32(black_box(&block)));
    });
    out.push(("wire.crc32_mb_per_s", block.len() as f64 / 1e6 / (ns / 1e9)));
}

/// `policy` and `store` probes on the workload's own shared policy.
/// Returns the `store.publish_delta_ms` reading for the caller's
/// push-residual arithmetic.
fn policy_and_store(fleet: &Fleet, inputs: &Inputs, out: &mut Readings) -> f64 {
    let snapshot = Arc::clone(fleet.cluster.verifier.policy_store().snapshot());
    let base = inputs.base_entries(fleet.shape.base_policy.min(1_024));
    let hits: Vec<(String, Digest)> = base
        .iter()
        .map(|(path, hex)| {
            let digest =
                Digest::parse_hex(HashAlgorithm::Sha256, hex).expect("generated digests are hex");
            (path.clone(), digest)
        })
        .collect();
    let stranger = HashAlgorithm::Sha256.digest(b"not in any policy");
    let n = hits.len();
    let check = |path: &str, digest: &Digest, want: PolicyCheck| {
        assert_eq!(black_box(&*snapshot).check_digest(path, digest), want);
    };
    out.push((
        "policy.check_digest_hit_ns",
        time_ns(1, || {
            for (path, digest) in &hits {
                check(path, digest, PolicyCheck::Allowed);
            }
        }) / n as f64,
    ));
    // The tampered binary's case: a path the policy has never seen.
    let absent: Vec<String> = hits
        .iter()
        .map(|(path, _)| path.replace("/obj-", "/gone-"))
        .collect();
    out.push((
        "policy.check_digest_miss_ns",
        time_ns(1, || {
            for path in &absent {
                check(path, &stranger, PolicyCheck::NotInPolicy);
            }
        }) / n as f64,
    ));
    out.push((
        "policy.check_excluded_ns",
        time_ns(n, || {
            check("/tmp/scratch/build.sh", &stranger, PolicyCheck::Excluded);
        }),
    ));

    // A private deep copy: the probes below mutate it.
    let mut policy: RuntimePolicy = (*snapshot).clone();
    drop(snapshot);
    let shape = fleet.shape;
    let mut day = 50_000u32;
    let mut next_delta = || {
        day += 1;
        inputs.day(day, shape.delta_entries, 0).delta
    };
    out.push((
        "policy.apply_delta_us_per_entry",
        time_prepared_ns(&mut next_delta, |delta| {
            assert_eq!(policy.apply_delta(&delta), shape.delta_entries);
        }) / 1e3
            / shape.delta_entries as f64,
    ));
    let mut store = PolicyStore::new();
    store.publish(policy);
    // The first delta pays the store's one cold copy-on-write clone.
    store.publish_delta(&next_delta());
    let publish_ms = time_prepared_ns(&mut next_delta, |delta| {
        black_box(store.publish_delta(&delta));
    }) / 1e6;
    out.push(("store.publish_delta_ms", publish_ms));
    publish_ms
}

/// A [`ShardTransport`] decorator counting frames and bytes sent by
/// either half into shared totals.
struct CountedConn<C> {
    inner: C,
    frames: Arc<AtomicU64>,
    bytes: Arc<AtomicU64>,
}

struct CountedTx<S> {
    inner: S,
    frames: Arc<AtomicU64>,
    bytes: Arc<AtomicU64>,
}

impl<S: FrameSender> FrameSender for CountedTx<S> {
    fn send_frame(&mut self, payload: &[u8]) -> Result<(), WireError> {
        let before = self.inner.bytes_sent();
        self.inner.send_frame(payload)?;
        self.frames.fetch_add(1, Ordering::Relaxed);
        self.bytes
            .fetch_add(self.inner.bytes_sent() - before, Ordering::Relaxed);
        Ok(())
    }

    fn frames_sent(&self) -> u64 {
        self.inner.frames_sent()
    }

    fn bytes_sent(&self) -> u64 {
        self.inner.bytes_sent()
    }
}

impl<C: ShardTransport> ShardTransport for CountedConn<C> {
    type Tx = CountedTx<C::Tx>;
    type Rx = C::Rx;

    fn split(self) -> (Self::Tx, Self::Rx) {
        let (tx, rx) = self.inner.split();
        (
            CountedTx {
                inner: tx,
                frames: self.frames,
                bytes: self.bytes,
            },
            rx,
        )
    }
}

/// `registrar`, `ring` and `remote` probes: a registrar enrolling
/// [`REMOTE_AGENTS`] fresh machines, the workload's ids on a
/// [`LANES`]-shard ring, and one shard served over an in-memory duplex
/// connection.
fn registrar_ring_remote(fleet: &Fleet, inputs: &Inputs, out: &mut Readings) {
    let mut rng = StdRng::seed_from_u64(inputs.cluster_seed());
    let manufacturer = Manufacturer::generate(&mut rng);
    let mut registrar = Registrar::new(
        vec![manufacturer.public_key().clone()],
        inputs.cluster_seed(),
    );
    let mut transport = ReliableTransport::new();
    let mut agents: Vec<Agent> = (0..REMOTE_AGENTS)
        .map(|i| Agent::new(Machine::new(&manufacturer, inputs.machine(i))))
        .collect();
    let mut register_ns = Vec::with_capacity(agents.len());
    for agent in &mut agents {
        let start = Instant::now();
        registrar
            .register(&mut transport, agent)
            .expect("a manufacturer-endorsed TPM registers");
        register_ns.push(start.elapsed().as_nanos() as f64);
    }
    out.push(("registrar.register_us", median(&register_ns) / 1e3));

    let mut ring = HashRing::new();
    for shard in 0..LANES as u32 {
        ring.add_shard(shard);
    }
    let ids = fleet.sorted_ids();
    let mut per_shard = [0usize; LANES];
    for id in ids {
        per_shard[ring.place(id).expect("non-empty ring") as usize] += 1;
    }
    let busiest = *per_shard.iter().max().expect("LANES > 0") as f64;
    out.push((
        "ring.imbalance",
        busiest / (ids.len() as f64 / LANES as f64),
    ));
    out.push((
        "ring.place_ns",
        time_ns(1, || {
            for id in ids {
                black_box(ring.place(black_box(id)));
            }
        }) / ids.len() as f64,
    ));

    let mut verifier = Verifier::new(fleet.shape.config(1));
    verifier.publish_policy(RuntimePolicy::new());
    for agent in &agents {
        let record = registrar
            .record_for(agent.id())
            .expect("registered above")
            .clone();
        verifier.add_agent_shared_with_identity(agent.id().clone(), record.ak, record.identity);
    }
    let scheduler = FleetScheduler::new();
    let commands: Vec<(AgentId, u64)> = verifier
        .agent_ids()
        .into_iter()
        .enumerate()
        .map(|(lane, id)| (id, lane as u64))
        .collect();
    let frames = Arc::new(AtomicU64::new(0));
    let bytes = Arc::new(AtomicU64::new(0));
    let mut rounds = 0u64;
    let round_ns = time_ns(1, || {
        let (server, driver) = DuplexShardTransport::pair();
        let counted = |inner| CountedConn {
            inner,
            frames: Arc::clone(&frames),
            bytes: Arc::clone(&bytes),
        };
        let (server, driver) = (counted(server), counted(driver));
        let driven = std::thread::scope(|scope| {
            let served = scope.spawn(|| {
                serve_round(
                    &scheduler,
                    &mut verifier,
                    agents.iter_mut(),
                    &transport,
                    server,
                )
            });
            let driven = drive_round(driver, &commands, 0, DEFAULT_WIRE_WINDOW);
            served
                .join()
                .expect("shard server does not panic")
                .expect("shard round is served");
            driven.expect("shard round is driven")
        });
        assert_eq!(driven.rows.len(), commands.len());
        rounds += 1;
    });
    out.push(("remote.drive_round_ms", round_ns / 1e6));
    let per_round = |total: &AtomicU64| total.load(Ordering::Relaxed) as f64 / rounds as f64;
    out.push(("remote.frames_per_round", per_round(&frames)));
    out.push((
        "remote.wire_bytes_per_agent",
        per_round(&bytes) / REMOTE_AGENTS as f64,
    ));
}

/// `durable` and `storage` probes on fresh in-memory journals.
fn durable_storage(out: &mut Readings) {
    let dir = VfsPath::new(DEFAULT_JOURNAL_DIR).expect("constant path");
    let mut journal =
        VerifierJournal::create(Vfs::with_standard_layout(), &dir).expect("fresh journal");
    let epoch = PolicyEpoch::ZERO.next();
    let ids: Vec<AgentId> = (0..STORAGE_KEYS)
        .map(|i| AgentId::new(format!("node-{i:012x}")))
        .collect();
    let result = |id: &AgentId| AgentRoundResult {
        id: id.clone(),
        backend: BackendKind::TpmIma,
        day: 0,
        attempts: 1,
        backoff_ms: 0,
        policy_epoch: epoch,
        shared_policy: true,
        outcome: RoundOutcome::Verified { new_entries: 4 },
    };
    let state = AgentStateSnapshot::fresh(epoch, true);
    let bytes_before = journal.log().vfs().total_bytes();
    let mut next = 0usize;
    let mut acks = 0u64;
    out.push((
        "durable.record_ack_us",
        time_prepared_ns(
            || {
                next = (next + 1) % ids.len();
                result(&ids[next])
            },
            |row| {
                journal
                    .record_ack(1, &row, &state, None)
                    .expect("in-memory journal");
                acks += 1;
            },
        ) / 1e3,
    ));
    out.push((
        "durable.bytes_per_ack",
        (journal.log().vfs().total_bytes() - bytes_before) as f64 / acks as f64,
    ));
    let mut round = 1u64;
    out.push((
        "durable.round_marks_us",
        time_ns(1, || {
            round += 1;
            journal.begin_round(round).expect("in-memory journal");
            journal.commit_round(round).expect("in-memory journal");
        }) / 1e3,
    ));

    // The storage sequence is fixed work, so `storage.frames` repeats
    // exactly: every key written twice, then one compaction.
    let (mut log, _) = LogStore::open(Vfs::with_standard_layout(), &dir).expect("fresh log");
    let keys: Vec<Vec<u8>> = ids
        .iter()
        .map(|id| format!("ack/{id}").into_bytes())
        .collect();
    let value = vec![0x5au8; 256];
    let mut put_ns = Vec::with_capacity(2 * keys.len());
    for key in keys.iter().chain(&keys) {
        let start = Instant::now();
        log.put(key, &value).expect("in-memory log");
        put_ns.push(start.elapsed().as_nanos() as f64);
    }
    out.push(("storage.put_us", median(&put_ns) / 1e3));
    out.push((
        "storage.get_us",
        time_ns(1, || {
            for key in &keys {
                black_box(log.get(key).expect("in-memory log"));
            }
        }) / 1e3
            / keys.len() as f64,
    ));
    out.push((
        "storage.open_ms",
        time_prepared_ns(
            || log.vfs().clone(),
            |vfs| {
                let (reopened, _) = LogStore::open(vfs, &dir).expect("clean log reopens");
                assert_eq!(reopened.len(), keys.len());
            },
        ) / 1e6,
    ));
    out.push((
        "storage.compact_ms",
        time_prepared_ns(
            || log.clone(),
            |mut copy| {
                assert_eq!(
                    copy.compact().expect("in-memory log"),
                    keys.len() as u64,
                    "one superseded frame per key"
                );
            },
        ) / 1e6,
    ));
    log.compact().expect("in-memory log");
    out.push(("storage.frames", log.frame_count() as f64));
}

/// Runs every probe. Returns the readings and, separately, the store's
/// `publish_delta` time in ms for the tenant's push-residual.
pub fn run_all(fleet: &Fleet, inputs: &Inputs) -> (Readings, f64) {
    let mut out = Readings::new();
    transport_tpm_wire(inputs, &mut out);
    crypto(&mut out);
    let store_publish_ms = policy_and_store(fleet, inputs, &mut out);
    registrar_ring_remote(fleet, inputs, &mut out);
    durable_storage(&mut out);
    (out, store_publish_ms)
}
