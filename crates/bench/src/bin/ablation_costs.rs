//! The paper's design-question ablations, timed. Each comparison prints
//! the median wall time of a fixed number of samples and asserts the
//! facts that make it a fair comparison:
//!
//! * policy update strategies — incremental diff vs full regeneration
//!   (§III-C's efficiency claim) vs maintainer-signed manifests (the §V
//!   update model);
//! * the P2 fix's cost — stop- vs continue-on-failure on a log where
//!   every second entry violates policy;
//! * the P4 fix's cost — stock IMA vs re-evaluation on path change, for
//!   the first execution after a move;
//! * the IMA measurement path — cache miss vs cache hit.
//!
//! Every other layer's cost is a probe of the end-to-end benchmark
//! (`benchmark/README.md`).
//!
//! Run: `cargo run --release -p cia-bench --bin ablation_costs`

use std::hint::black_box;
use std::time::{Duration, Instant};

use cia_core::{DynamicPolicyGenerator, GeneratorConfig};
use cia_crypto::HashAlgorithm;
use cia_distro::mirror::MirrorDiff;
use cia_distro::{Maintainer, ManifestAuthority, Mirror, ReleaseStream, StreamProfile};
use cia_ima::ImaConfig;
use cia_keylime::{AgentId, AttestationOutcome, Cluster, RuntimePolicy, VerifierConfig};
use cia_os::{ExecMethod, Machine, MachineConfig};
use cia_tpm::Manufacturer;
use cia_vfs::{Mode, VfsPath};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Samples per timed variant.
const SAMPLES: usize = 15;

/// Median wall time of `SAMPLES` runs of `run`, each on a fresh input
/// from the untimed `setup`, plus the last run's output.
fn median<I, O>(mut setup: impl FnMut() -> I, mut run: impl FnMut(I) -> O) -> (Duration, O) {
    let mut times = Vec::with_capacity(SAMPLES);
    let mut last = None;
    for _ in 0..SAMPLES {
        let input = setup();
        let start = Instant::now();
        let output = black_box(run(black_box(input)));
        times.push(start.elapsed());
        last = Some(output);
    }
    times.sort();
    (times[SAMPLES / 2], last.expect("SAMPLES > 0"))
}

fn path(raw: &str) -> VfsPath {
    VfsPath::new(raw).expect("absolute path")
}

fn update_strategies() {
    const KERNEL: &str = "5.15.0-76";
    let (mut stream, mut repo) = ReleaseStream::new(StreamProfile::small(42));
    let mut mirror = Mirror::new();
    mirror.sync(&repo, 0);
    let day0_mirror = mirror.clone();
    let mut diff = MirrorDiff::default();
    for day in 1..60 {
        repo.apply_release(&stream.next_day());
        diff = mirror.sync(&repo, day);
        if diff.len() >= 3 {
            break;
        }
    }
    let generate = |mirror: &Mirror, day| {
        DynamicPolicyGenerator::generate_initial(
            mirror,
            KERNEL,
            day,
            GeneratorConfig::paper_default(),
        )
        .0
    };
    let day0 = generate(&day0_mirror, 0);
    let maintainer = Maintainer::generate("canonical", &mut StdRng::seed_from_u64(9));
    let mut authority = ManifestAuthority::new();
    authority.trust(&maintainer);
    let manifests: Vec<_> = diff.iter().map(|p| maintainer.sign_package(p)).collect();

    let (incremental, incremental_out) = median(
        || generate(&day0_mirror, 0),
        |mut generator| {
            generator.apply_diff(&diff, 1);
            generator.finish_update_window();
            generator
        },
    );
    let (full, full_out) = median(|| (), |()| generate(&mirror, 1));
    let (signed, signed_out) = median(
        || generate(&day0_mirror, 0),
        |mut generator| {
            generator
                .apply_signed_manifests(&manifests, &authority, 1)
                .expect("every manifest is signed by a trusted maintainer");
            generator
        },
    );
    for (name, generator) in [
        ("incremental diff", &incremental_out),
        ("full regeneration", &full_out),
        ("signed manifests", &signed_out),
    ] {
        assert!(
            !generator.policy().diff(day0.policy()).is_empty(),
            "{name} left the policy unchanged"
        );
    }
    println!(
        "policy update strategies ({} changed packages, small mirror; §III-C, §V)",
        diff.len()
    );
    println!("  incremental diff    {incremental:>12.2?}");
    println!(
        "  full regeneration   {full:>12.2?}  ({:.1}x incremental)",
        full.as_secs_f64() / incremental.as_secs_f64()
    );
    println!(
        "  signed manifests    {signed:>12.2?}  ({:.1}x faster than incremental)",
        incremental.as_secs_f64() / signed.as_secs_f64()
    );
}

/// A one-machine cluster whose log alternates an allowed binary with one
/// outside the policy, `pairs` times, after the boot aggregate.
fn violating_cluster(continue_on_failure: bool, pairs: usize) -> (Cluster, AgentId) {
    let config = VerifierConfig::builder()
        .continue_on_failure(continue_on_failure)
        .build()
        .expect("valid config");
    let mut cluster = Cluster::new(1, config);
    let id = cluster
        .add_machine(MachineConfig::default(), RuntimePolicy::new())
        .expect("enrolment");
    let mut policy = RuntimePolicy::new();
    let machine = cluster.agent_mut(&id).expect("enrolled").machine_mut();
    for i in 0..pairs {
        let good = path(&format!("/usr/bin/tool-{i:03}"));
        let rogue = path(&format!("/usr/local/bin/rogue-{i:03}"));
        machine
            .write_executable(&good, format!("binary {i}").as_bytes())
            .expect("write");
        machine
            .write_executable(&rogue, format!("rogue {i}").as_bytes())
            .expect("write");
        let digest = machine
            .vfs
            .file_digest(&good, HashAlgorithm::Sha256)
            .expect("digest");
        policy.allow(good.as_str(), digest.to_hex());
        machine.exec(&good, ExecMethod::Direct).expect("exec");
        machine.exec(&rogue, ExecMethod::Direct).expect("exec");
    }
    cluster
        .verifier
        .update_policy(&id, policy)
        .expect("enrolled");
    (cluster, id)
}

fn p2_failure_mode() {
    const PAIRS: usize = 100;
    println!("P2 fix: one attestation of a log where every second entry violates policy");
    for (label, continue_on_failure) in [("stop-on-failure", false), ("continue-on-failure", true)]
    {
        let (time, (cluster, id, outcome)) = median(
            || violating_cluster(continue_on_failure, PAIRS),
            |(mut cluster, id)| {
                let outcome = cluster.attest(&id).expect("reachable");
                (cluster, id, outcome)
            },
        );
        let AttestationOutcome::Failed { alerts } = outcome else {
            panic!("{label}: a violating log must fail, got {outcome:?}");
        };
        let appraised = cluster
            .verifier
            .export_agent_state(&id)
            .expect("enrolled")
            .next_entry;
        let logged = cluster
            .agent(&id)
            .expect("enrolled")
            .machine()
            .ima
            .log()
            .len();
        if continue_on_failure {
            assert_eq!(appraised, logged, "{label} must evaluate every entry");
            assert_eq!(alerts.len(), PAIRS, "{label} must flag every violation");
        } else {
            assert!(
                appraised < logged,
                "{label} must stop at the first violation"
            );
            assert_eq!(alerts.len(), 1);
        }
        println!(
            "  {label:<20}{time:>12.2?}  ({} alert(s), appraised {appraised} of {logged} entries)",
            alerts.len()
        );
    }
}

/// A machine that executed `/tmp/payload` and then moved it to
/// `/usr/bin/payload`; returns the destination and the log length.
fn moved_payload(manufacturer: &Manufacturer, reevaluate: bool) -> (Machine, VfsPath, usize) {
    let ima_config = ImaConfig {
        reevaluate_on_path_change: reevaluate,
        script_exec_control: false,
    };
    let mut machine = Machine::new(
        manufacturer,
        MachineConfig {
            ima_config,
            ..MachineConfig::default()
        },
    );
    let staged = path("/tmp/payload");
    let dest = path("/usr/bin/payload");
    machine
        .write_executable(&staged, &[0x33; 4096])
        .expect("write");
    machine.exec(&staged, ExecMethod::Direct).expect("exec");
    machine.vfs.move_entry(&staged, &dest).expect("move");
    let logged = machine.ima.log().len();
    (machine, dest, logged)
}

fn p4_reevaluation(manufacturer: &Manufacturer) {
    println!("P4 fix: first execution after moving a measured file");
    for (label, reevaluate) in [("stock", false), ("re-evaluate on move", true)] {
        let (time, (machine, before)) = median(
            || moved_payload(manufacturer, reevaluate),
            |(mut machine, dest, before)| {
                machine.exec(&dest, ExecMethod::Direct).expect("exec");
                (machine, before)
            },
        );
        let entries = machine.ima.log().entries();
        let added = entries.len() - before;
        if reevaluate {
            assert_eq!(added, 1, "{label} must measure the moved file once");
            assert_eq!(entries[before].path, "/usr/bin/payload");
        } else {
            assert_eq!(added, 0, "{label} serves the move from its cache");
        }
        println!("  {label:<20}{time:>12.2?}  (+{added} log entry)");
    }
}

fn ima_cache(manufacturer: &Manufacturer) {
    const FILES: usize = 100;
    const HITS: usize = 1_000;
    let mut machine = Machine::new(manufacturer, MachineConfig::default());
    let fresh: Vec<VfsPath> = (0..FILES)
        .map(|i| {
            let fresh = path(&format!("/usr/bin/fresh-{i}"));
            machine
                .vfs
                .write_file(&fresh, vec![0x11; 4096], Mode::EXEC)
                .expect("write");
            fresh
        })
        .collect();
    let base = machine.ima.log().len();
    let (miss, ima) = median(
        || (machine.ima.clone(), machine.tpm.clone()),
        |(mut ima, mut tpm)| {
            for file in &fresh {
                ima.on_exec(&machine.vfs, file, file, &mut tpm)
                    .expect("measure");
            }
            ima
        },
    );
    assert_eq!(
        ima.log().len() - base,
        FILES,
        "every miss appends one entry"
    );

    let hot = path("/usr/bin/hot");
    machine
        .write_executable(&hot, &[0x22; 4096])
        .expect("write");
    machine.exec(&hot, ExecMethod::Direct).expect("exec");
    let logged = machine.ima.log().len();
    let (hit, ()) = median(
        || (),
        |()| {
            for _ in 0..HITS {
                machine.exec(&hot, ExecMethod::Direct).expect("exec");
            }
        },
    );
    assert_eq!(machine.ima.log().len(), logged, "a hit appends nothing");
    println!("IMA measurement path, per measurement");
    println!("  cache miss          {:>12.2?}", miss / FILES as u32);
    println!("  cache hit           {:>12.2?}", hit / HITS as u32);
}

fn main() {
    println!("== Ablation costs: the paper's design questions (median of {SAMPLES} samples) ==\n");
    update_strategies();
    println!();
    p2_failure_mode();
    println!();
    let manufacturer = Manufacturer::generate(&mut StdRng::seed_from_u64(2));
    p4_reevaluation(&manufacturer);
    println!();
    ima_cache(&manufacturer);
}
