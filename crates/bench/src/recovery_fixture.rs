//! Journal fixtures for the recovery benchmarks.
//!
//! Builds a durable verifier journal for an N-agent shared-store fleet
//! directly through [`VerifierJournal`] — no machines, no transport —
//! so the recovery benches measure replay cost alone, at fleet sizes
//! (10k agents) a full simulated cluster would take minutes to set up.
//!
//! The journal shape mirrors what `Cluster` writes in production: a base
//! policy checkpoint, a few delta epochs, one enrolment record per
//! agent, `rounds` committed attestation rounds (each agent acked every
//! round, so earlier acks are superseded garbage for compaction), and
//! optionally one *in-flight* round — started, partially acked, never
//! committed — so recovery exercises the mid-round resume path.

use cia_crypto::KeyPair;
use cia_keylime::{
    AgentId, AgentRoundResult, AgentStateSnapshot, BackendIdentity, BackendKind, PolicyDelta,
    PolicyEpoch, RoundOutcome, RuntimePolicy, Verifier, VerifierConfig, VerifierJournal,
    DEFAULT_JOURNAL_DIR,
};
use cia_vfs::{Vfs, VfsPath};

/// Policy entries in the base checkpoint.
pub const POLICY_ENTRIES: usize = 1_000;
/// Delta epochs journaled on top of the base checkpoint.
pub const DELTA_EPOCHS: u64 = 3;

/// The journal directory used by the fixtures.
pub fn journal_dir() -> VfsPath {
    VfsPath::new(DEFAULT_JOURNAL_DIR).expect("constant path")
}

fn base_policy() -> RuntimePolicy {
    let mut policy = RuntimePolicy::new();
    for i in 0..POLICY_ENTRIES {
        policy.allow(format!("/usr/bin/tool-{i:05}"), format!("{i:064x}"));
    }
    policy.exclude("/tmp");
    policy
}

fn ack(id: &AgentId, epoch: PolicyEpoch) -> (AgentRoundResult, AgentStateSnapshot) {
    let result = AgentRoundResult {
        id: id.clone(),
        backend: BackendKind::TpmIma,
        day: 0,
        attempts: 1,
        backoff_ms: 0,
        policy_epoch: epoch,
        shared_policy: true,
        outcome: RoundOutcome::Verified { new_entries: 0 },
    };
    (result, AgentStateSnapshot::fresh(epoch, true))
}

/// Builds the journal described in the module docs and returns it.
///
/// `in_flight_acks > 0` leaves one uncommitted round at the end with
/// that many agents acked — recovery then yields a [`ResumePlan`]
/// covering exactly those agents.
///
/// [`ResumePlan`]: cia_keylime::ResumePlan
pub fn journaled_fleet(fleet: usize, rounds: u64, in_flight_acks: usize) -> VerifierJournal {
    let vfs = Vfs::with_standard_layout();
    let dir = journal_dir();
    let mut journal = VerifierJournal::create(vfs, &dir).expect("create journal");

    // Base checkpoint at epoch 1, then a few delta epochs on top — the
    // recovery path replays these through the real policy store.
    let policy = base_policy();
    let base_epoch = PolicyEpoch::ZERO.next();
    journal
        .checkpoint_base(base_epoch, &policy)
        .expect("base checkpoint");
    // The journal records an enrolment as a verifier holds it: this one
    // sits at the base checkpoint and enrols every agent on its store.
    let mut enrolled = Verifier::new(VerifierConfig::default());
    enrolled.restore_store(std::sync::Arc::new(policy), base_epoch);
    let mut epoch = base_epoch;
    for e in 0..DELTA_EPOCHS {
        epoch = epoch.next();
        let delta = PolicyDelta {
            added: vec![(format!("/usr/bin/extra-{e}"), format!("{e:064x}"))],
            ..PolicyDelta::default()
        };
        journal
            .record_publish_delta(epoch, &delta)
            .expect("delta publish");
    }

    let ak = KeyPair::from_material([7u8; 32]).verifying;
    let ids: Vec<AgentId> = (0..fleet)
        .map(|i| AgentId::from(format!("agent-{i:05}")))
        .collect();
    for id in &ids {
        enrolled.add_agent_shared_with_identity(id.clone(), ak.clone(), BackendIdentity::tpm_ima());
        journal
            .record_enrolment(&enrolled, id)
            .expect("enrolment record");
    }

    for _ in 0..rounds {
        let round = journal.next_round();
        journal.begin_round(round).expect("round start mark");
        for id in &ids {
            let (result, state) = ack(id, epoch);
            journal
                .record_ack(round, &result, &state, None)
                .expect("ack record");
        }
        journal.commit_round(round).expect("round commit mark");
    }

    if in_flight_acks > 0 {
        let round = journal.next_round();
        journal.begin_round(round).expect("in-flight start mark");
        for id in ids.iter().take(in_flight_acks) {
            let (result, state) = ack(id, epoch);
            journal
                .record_ack(round, &result, &state, None)
                .expect("in-flight ack");
        }
    }

    journal
}
