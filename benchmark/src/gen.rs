//! Seeded input generation. Everything the program sees — machine
//! seeds, hostnames (hence ring placement and lane order), file contents
//! (hence digests), which agent is tampered — derives from `--seed`, and
//! every generated string has a fixed width so a second seed changes
//! values but not shapes.

use cia_crypto::HashAlgorithm;
use cia_keylime::PolicyDelta;
use cia_os::MachineConfig;
use cia_vfs::VfsPath;

/// SplitMix64 finalizer: a well-mixed 64-bit value from `(seed, stream,
/// index)`.
pub fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(index.wrapping_mul(0xd1b5_4a32_d192_ed03));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

const STREAM_HOST: u64 = 1;
const STREAM_MACHINE: u64 = 2;
const STREAM_TAMPER: u64 = 3;
const STREAM_CLUSTER: u64 = 4;

/// An executable the harness plants on agents: where, and its bytes.
#[derive(Debug, Clone)]
pub struct Binary {
    /// Absolute path on the agent's filesystem.
    pub path: VfsPath,
    /// File content; its SHA-256 is what IMA measures.
    pub content: String,
}

impl Binary {
    fn new(path: String, content: String) -> Self {
        Binary {
            path: VfsPath::new(&path).expect("generated paths are absolute and clean"),
            content,
        }
    }

    /// The `(path, sha256-hex)` policy entry that allows this binary.
    pub fn policy_entry(&self) -> (String, String) {
        (
            self.path.as_str().to_string(),
            sha256_hex(self.content.as_bytes()),
        )
    }
}

fn sha256_hex(bytes: &[u8]) -> String {
    HashAlgorithm::Sha256.digest(bytes).to_hex()
}

/// One day's generated inputs.
#[derive(Debug, Clone)]
pub struct Day {
    /// The policy delta the operator pushes before the machines upgrade.
    pub delta: PolicyDelta,
    /// The subset of the delta every agent then writes and executes.
    pub binaries: Vec<Binary>,
    /// The out-of-policy binary the day's tampered agent executes.
    pub evil: Binary,
}

/// The seeded generator.
#[derive(Debug, Clone, Copy)]
pub struct Inputs {
    seed: u64,
}

impl Inputs {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Inputs { seed }
    }

    /// The seed of the cluster's own keys (manufacturer, registrar,
    /// revocation and audit signers).
    pub fn cluster_seed(&self) -> u64 {
        mix(self.seed, STREAM_CLUSTER, 0)
    }

    /// The machine description of agent `i`. Hostnames are 48 seeded
    /// bits, so enrolment order, sorted-id (lane) order and ring
    /// placement all differ between seeds.
    pub fn machine(&self, i: usize) -> MachineConfig {
        MachineConfig {
            hostname: format!(
                "node-{:012x}",
                mix(self.seed, STREAM_HOST, i as u64) & 0xffff_ffff_ffff
            ),
            seed: mix(self.seed, STREAM_MACHINE, i as u64),
            ..MachineConfig::default()
        }
    }

    /// The shared base policy's `(path, sha256-hex)` entries. Building
    /// the `RuntimePolicy` from them is program work and is timed with
    /// set-up; hashing them here is not.
    pub fn base_entries(&self, entries: usize) -> Vec<(String, String)> {
        (0..entries)
            .map(|i| {
                (
                    format!("/usr/lib/pkg-{:05}/obj-{:02}.so", i / 16, i % 16),
                    sha256_hex(format!("{:016x}:base:{i}", self.seed).as_bytes()),
                )
            })
            .collect()
    }

    /// Backlog binary `k`: identical on every agent, allowed by policy.
    pub fn backlog_binary(&self, k: usize) -> Binary {
        Binary::new(
            format!("/usr/bin/tool-{k:05}"),
            format!("{:016x}:tool:{k}", self.seed),
        )
    }

    /// Day `day`'s delta of `entries` additions, the first `binaries` of
    /// which every agent installs and runs.
    pub fn day(&self, day: u32, entries: usize, binaries: usize) -> Day {
        let all: Vec<Binary> = (0..entries)
            .map(|k| {
                Binary::new(
                    format!("/usr/local/bin/d{day:05}-{k:04}"),
                    format!("{:016x}:day:{day}:{k}", self.seed),
                )
            })
            .collect();
        let delta = PolicyDelta {
            added: all.iter().map(Binary::policy_entry).collect(),
            ..PolicyDelta::default()
        };
        let mut all = all;
        all.truncate(binaries);
        Day {
            delta,
            binaries: all,
            evil: Binary::new(
                format!("/usr/local/bin/d{day:05}-evil"),
                format!("{:016x}:evil:{day}", self.seed),
            ),
        }
    }

    /// Index (in enrolment order) of the agent tampered on `day`: a
    /// seeded start, then one agent further each day.
    pub fn tampered(&self, day: u32, agents: usize) -> usize {
        ((mix(self.seed, STREAM_TAMPER, 0) % agents as u64) as usize + day as usize) % agents
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_values_same_shapes() {
        let (a, b, c) = (Inputs::new(7), Inputs::new(7), Inputs::new(8));
        assert_eq!(a.machine(3).hostname, b.machine(3).hostname);
        assert_eq!(a.machine(3).seed, b.machine(3).seed);
        assert_ne!(a.machine(3).hostname, c.machine(3).hostname);
        assert_eq!(
            a.machine(3).hostname.len(),
            c.machine(3).hostname.len(),
            "fixed-width hostnames keep wire sizes seed-independent"
        );

        let (da, db, dc) = (a.day(2, 20, 4), b.day(2, 20, 4), c.day(2, 20, 4));
        assert_eq!(da.delta, db.delta);
        assert_ne!(da.delta, dc.delta, "digests depend on the seed");
        assert_eq!(da.delta.added.len(), 20);
        assert_eq!(da.binaries.len(), 4);
        for (x, y) in da.delta.added.iter().zip(&dc.delta.added) {
            assert_eq!(x.0, y.0, "paths do not depend on the seed");
            assert_eq!(x.1.len(), y.1.len());
        }
        assert_eq!(da.binaries[0].policy_entry(), da.delta.added[0]);
        assert!(!da.delta.added.contains(&da.evil.policy_entry()));
    }

    #[test]
    fn tampered_agent_rotates_through_the_fleet() {
        let inputs = Inputs::new(1);
        let first = inputs.tampered(0, 10);
        assert_eq!(inputs.tampered(1, 10), (first + 1) % 10);
        assert_eq!(inputs.tampered(10, 10), first);
    }
}
