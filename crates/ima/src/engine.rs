//! The IMA engine: hooks, the measurement cache, and mitigation toggles.

use std::collections::BTreeMap;

use cia_crypto::{HashAlgorithm, Sha256};
use cia_tpm::Tpm;
use cia_vfs::{FileId, Vfs, VfsPath};
use serde::{Deserialize, Serialize};

use crate::error::ImaError;
use crate::log::{ImaLogEntry, MeasurementLog, BOOT_AGGREGATE_NAME};
use crate::policy::{ImaFunc, ImaPolicy};

/// Behavioural toggles corresponding to the paper's proposed IMA fixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ImaConfig {
    /// §IV-C "Improving IMA Design: Re-Evaluation" — when set, a cached
    /// measurement is invalidated if the file is accessed under a
    /// different path than the one recorded, closing P4. Stock IMA
    /// behaviour (and the default) is `false`.
    pub reevaluate_on_path_change: bool,
    /// §IV-C "Improving IMA Design: Script Invocations" — when set,
    /// interpreters that support script-execution-control open scripts
    /// with exec intent and the [`ImaFunc::MayExecOpen`] hook fires.
    /// Stock behaviour is `false`.
    pub script_exec_control: bool,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct CachedMeasurement {
    iversion: u64,
    /// Path recorded at measurement time (for the re-evaluation fix).
    path: String,
}

/// Result of presenting one access to the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeasureOutcome {
    /// A new entry was appended to the measurement list.
    Measured,
    /// The policy exempts this access (e.g. excluded filesystem — P3).
    PolicyExempt,
    /// The inode was already measured and unchanged (P4).
    Cached,
}

/// The in-kernel IMA state for one machine.
#[derive(Debug, Clone)]
pub struct Ima {
    policy: ImaPolicy,
    config: ImaConfig,
    log: MeasurementLog,
    /// The `iint` cache: measurement state keyed by `(filesystem, inode)`.
    cache: BTreeMap<FileId, CachedMeasurement>,
}

impl Ima {
    /// Creates an engine with stock kernel behaviour.
    pub fn new(policy: ImaPolicy) -> Self {
        Self::with_config(policy, ImaConfig::default())
    }

    /// Creates an engine with explicit mitigation toggles.
    pub fn with_config(policy: ImaPolicy, config: ImaConfig) -> Self {
        Ima {
            policy,
            config,
            log: MeasurementLog::new(),
            cache: BTreeMap::new(),
        }
    }

    /// The active measurement policy.
    pub fn policy(&self) -> &ImaPolicy {
        &self.policy
    }

    /// The active configuration.
    pub fn config(&self) -> ImaConfig {
        self.config
    }

    /// Replaces the policy (e.g. loading an enriched policy). Takes effect
    /// for subsequent accesses only, like writing `/sys/.../ima/policy`.
    pub fn set_policy(&mut self, policy: ImaPolicy) {
        self.policy = policy;
    }

    /// The measurement list.
    pub fn log(&self) -> &MeasurementLog {
        &self.log
    }

    /// Records the `boot_aggregate` entry: a digest over PCRs 0–9,
    /// committing the measured-boot state into the runtime list. Must be
    /// called once per boot before any file measurement.
    ///
    /// # Errors
    ///
    /// Propagates TPM read/extend failures.
    pub fn record_boot_aggregate(&mut self, tpm: &mut Tpm) -> Result<(), ImaError> {
        let mut h = Sha256::new();
        for pcr in 0..=9u8 {
            h.update(tpm.pcr_read(HashAlgorithm::Sha256, pcr)?.as_bytes());
        }
        let aggregate = h.finalize();
        self.log
            .append(ImaLogEntry::new(aggregate, BOOT_AGGREGATE_NAME), tpm)
    }

    /// `execve()` hook (`BPRM_CHECK`). `real_path` locates the file in the
    /// VFS; `recorded_path` is the pathname the kernel sees and logs —
    /// for SNAP/chroot executions this is the truncated in-sandbox path.
    ///
    /// # Errors
    ///
    /// Propagates VFS lookup and TPM failures.
    pub fn on_exec(
        &mut self,
        vfs: &Vfs,
        real_path: &VfsPath,
        recorded_path: &VfsPath,
        tpm: &mut Tpm,
    ) -> Result<MeasureOutcome, ImaError> {
        self.measure(vfs, real_path, recorded_path, ImaFunc::BprmCheck, tpm)
    }

    /// `mmap(PROT_EXEC)` hook (`FILE_MMAP`) — shared libraries.
    ///
    /// # Errors
    ///
    /// Propagates VFS lookup and TPM failures.
    pub fn on_mmap_exec(
        &mut self,
        vfs: &Vfs,
        real_path: &VfsPath,
        recorded_path: &VfsPath,
        tpm: &mut Tpm,
    ) -> Result<MeasureOutcome, ImaError> {
        self.measure(vfs, real_path, recorded_path, ImaFunc::FileMmap, tpm)
    }

    /// Kernel-module load hook (`MODULE_CHECK`).
    ///
    /// # Errors
    ///
    /// Propagates VFS lookup and TPM failures.
    pub fn on_module_load(
        &mut self,
        vfs: &Vfs,
        path: &VfsPath,
        tpm: &mut Tpm,
    ) -> Result<MeasureOutcome, ImaError> {
        self.measure(vfs, path, path, ImaFunc::ModuleCheck, tpm)
    }

    /// Interpreter script-open hook. Fires only when
    /// [`ImaConfig::script_exec_control`] is enabled *and* the policy
    /// measures [`ImaFunc::MayExecOpen`]; otherwise the open is an
    /// ordinary read and nothing is measured — which is exactly P5.
    ///
    /// # Errors
    ///
    /// Propagates VFS lookup and TPM failures.
    pub fn on_script_open(
        &mut self,
        vfs: &Vfs,
        real_path: &VfsPath,
        recorded_path: &VfsPath,
        tpm: &mut Tpm,
    ) -> Result<MeasureOutcome, ImaError> {
        if !self.config.script_exec_control {
            return Ok(MeasureOutcome::PolicyExempt);
        }
        self.measure(vfs, real_path, recorded_path, ImaFunc::MayExecOpen, tpm)
    }

    /// The shared measurement path: policy check, cache check, hash,
    /// append, extend.
    fn measure(
        &mut self,
        vfs: &Vfs,
        real_path: &VfsPath,
        recorded_path: &VfsPath,
        func: ImaFunc,
        tpm: &mut Tpm,
    ) -> Result<MeasureOutcome, ImaError> {
        let meta = vfs.metadata(real_path)?;
        if !self.policy.should_measure(func, meta.fs_kind.fsmagic()) {
            return Ok(MeasureOutcome::PolicyExempt);
        }

        if let Some(cached) = self.cache.get(&meta.file_id) {
            let content_unchanged = cached.iversion == meta.iversion;
            let path_unchanged = cached.path == recorded_path.as_str();
            // Stock IMA: only content changes invalidate (P4). With the
            // re-evaluation fix, a new pathname also invalidates.
            let still_valid = if self.config.reevaluate_on_path_change {
                content_unchanged && path_unchanged
            } else {
                content_unchanged
            };
            if still_valid {
                return Ok(MeasureOutcome::Cached);
            }
        }

        let filedata_hash = vfs.file_digest(real_path, HashAlgorithm::Sha256)?;
        self.log
            .append(ImaLogEntry::new(filedata_hash, recorded_path.as_str()), tpm)?;
        self.cache.insert(
            meta.file_id,
            CachedMeasurement {
                iversion: meta.iversion,
                path: recorded_path.as_str().to_string(),
            },
        );
        Ok(MeasureOutcome::Measured)
    }

    /// Reboot semantics: measurement list and cache are reset (they live
    /// in RAM); the policy persists (it is reloaded from disk by init).
    pub fn reboot(&mut self) {
        self.log.clear();
        self.cache.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cia_tpm::Manufacturer;
    use cia_vfs::Mode;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Vfs, Tpm, Ima) {
        let mut rng = StdRng::seed_from_u64(7);
        let m = Manufacturer::generate(&mut rng);
        let tpm = Tpm::manufacture(&m, &mut rng);
        let vfs = Vfs::with_standard_layout();
        let ima = Ima::new(ImaPolicy::keylime_default());
        (vfs, tpm, ima)
    }

    fn p(s: &str) -> VfsPath {
        VfsPath::new(s).unwrap()
    }

    #[test]
    fn exec_on_ext4_is_measured_once() {
        let (mut vfs, mut tpm, mut ima) = setup();
        let f = p("/usr/bin/tool");
        vfs.create_file(&f, b"bin".to_vec(), Mode::EXEC).unwrap();

        assert_eq!(
            ima.on_exec(&vfs, &f, &f, &mut tpm).unwrap(),
            MeasureOutcome::Measured
        );
        assert_eq!(
            ima.on_exec(&vfs, &f, &f, &mut tpm).unwrap(),
            MeasureOutcome::Cached
        );
        assert_eq!(ima.log().len(), 1);
    }

    #[test]
    fn content_change_remeasures() {
        let (mut vfs, mut tpm, mut ima) = setup();
        let f = p("/usr/bin/tool");
        vfs.create_file(&f, b"v1".to_vec(), Mode::EXEC).unwrap();
        ima.on_exec(&vfs, &f, &f, &mut tpm).unwrap();
        vfs.write_file(&f, b"v2".to_vec(), Mode::EXEC).unwrap();
        assert_eq!(
            ima.on_exec(&vfs, &f, &f, &mut tpm).unwrap(),
            MeasureOutcome::Measured
        );
        assert_eq!(ima.log().len(), 2);
    }

    #[test]
    fn p3_tmpfs_exec_is_invisible() {
        let (mut vfs, mut tpm, mut ima) = setup();
        let f = p("/dev/shm/payload");
        vfs.create_file(&f, b"evil".to_vec(), Mode::EXEC).unwrap();
        assert_eq!(
            ima.on_exec(&vfs, &f, &f, &mut tpm).unwrap(),
            MeasureOutcome::PolicyExempt
        );
        assert!(ima.log().is_empty());
    }

    #[test]
    fn p4_move_within_fs_not_remeasured() {
        let (mut vfs, mut tpm, mut ima) = setup();
        // /tmp is on the root ext4 (Ubuntu default) — measured territory.
        let staged = p("/tmp/rootkit");
        let dest = p("/usr/bin/rootkit");
        vfs.create_file(&staged, b"evil".to_vec(), Mode::EXEC)
            .unwrap();

        // Attacker (or a test run) executes it at the staging path once.
        assert_eq!(
            ima.on_exec(&vfs, &staged, &staged, &mut tpm).unwrap(),
            MeasureOutcome::Measured
        );
        // Move to destination: same filesystem, inode preserved.
        vfs.move_entry(&staged, &dest).unwrap();
        // Stock IMA never re-measures: the /usr/bin execution is invisible.
        assert_eq!(
            ima.on_exec(&vfs, &dest, &dest, &mut tpm).unwrap(),
            MeasureOutcome::Cached
        );
        assert_eq!(ima.log().len(), 1);
        assert_eq!(ima.log().entries()[0].path, "/tmp/rootkit");
    }

    #[test]
    fn p4_fix_reevaluates_on_path_change() {
        let (mut vfs, mut tpm, mut ima_fixed) = setup();
        ima_fixed = Ima::with_config(
            ima_fixed.policy().clone(),
            ImaConfig {
                reevaluate_on_path_change: true,
                script_exec_control: false,
            },
        );
        let staged = p("/tmp/rootkit");
        let dest = p("/usr/bin/rootkit");
        vfs.create_file(&staged, b"evil".to_vec(), Mode::EXEC)
            .unwrap();
        ima_fixed.on_exec(&vfs, &staged, &staged, &mut tpm).unwrap();
        vfs.move_entry(&staged, &dest).unwrap();
        assert_eq!(
            ima_fixed.on_exec(&vfs, &dest, &dest, &mut tpm).unwrap(),
            MeasureOutcome::Measured
        );
        assert_eq!(ima_fixed.log().entries()[1].path, "/usr/bin/rootkit");
    }

    #[test]
    fn p5_script_open_unmeasured_by_default() {
        let (mut vfs, mut tpm, mut ima) = setup();
        let script = p("/usr/local/bin/attack.py");
        vfs.create_file(&script, b"import os".to_vec(), Mode::REGULAR)
            .unwrap();
        assert_eq!(
            ima.on_script_open(&vfs, &script, &script, &mut tpm)
                .unwrap(),
            MeasureOutcome::PolicyExempt
        );
        assert!(ima.log().is_empty());
    }

    #[test]
    fn p5_fix_measures_script_opens() {
        let (mut vfs, mut tpm, _) = setup();
        let mut ima = Ima::with_config(
            ImaPolicy::enriched(true),
            ImaConfig {
                reevaluate_on_path_change: false,
                script_exec_control: true,
            },
        );
        let script = p("/usr/local/bin/attack.py");
        vfs.create_file(&script, b"import os".to_vec(), Mode::REGULAR)
            .unwrap();
        assert_eq!(
            ima.on_script_open(&vfs, &script, &script, &mut tpm)
                .unwrap(),
            MeasureOutcome::Measured
        );
        assert_eq!(ima.log().entries()[0].path, "/usr/local/bin/attack.py");
    }

    #[test]
    fn boot_aggregate_is_first_and_replay_matches() {
        let (mut vfs, mut tpm, mut ima) = setup();
        // Simulate measured boot extending PCR 0.
        tpm.pcr_extend(
            HashAlgorithm::Sha256,
            0,
            HashAlgorithm::Sha256.digest(b"firmware"),
        )
        .unwrap();
        ima.record_boot_aggregate(&mut tpm).unwrap();
        let f = p("/usr/bin/tool");
        vfs.create_file(&f, b"bin".to_vec(), Mode::EXEC).unwrap();
        ima.on_exec(&vfs, &f, &f, &mut tpm).unwrap();

        assert_eq!(ima.log().entries()[0].path, BOOT_AGGREGATE_NAME);
        for bank in [HashAlgorithm::Sha1, HashAlgorithm::Sha256] {
            assert_eq!(
                ima.log().replay(bank),
                tpm.pcr_read(bank, crate::IMA_PCR).unwrap()
            );
        }
    }

    #[test]
    fn reboot_clears_log_and_cache() {
        let (mut vfs, mut tpm, mut ima) = setup();
        let f = p("/usr/bin/tool");
        vfs.create_file(&f, b"bin".to_vec(), Mode::EXEC).unwrap();
        ima.on_exec(&vfs, &f, &f, &mut tpm).unwrap();
        ima.reboot();
        tpm.reboot();
        assert!(ima.log().is_empty());
        // After reboot the same file is measured afresh.
        assert_eq!(
            ima.on_exec(&vfs, &f, &f, &mut tpm).unwrap(),
            MeasureOutcome::Measured
        );
    }

    #[test]
    fn snap_truncated_path_is_recorded() {
        let (mut vfs, mut tpm, mut ima) = setup();
        vfs.mkdir_p(&p("/snap/core20/1234/usr/bin")).unwrap();
        vfs.mount(&p("/snap/core20/1234"), cia_vfs::FilesystemKind::Squashfs)
            .unwrap();
        vfs.mkdir_p(&p("/snap/core20/1234/usr/bin")).unwrap();
        let real = p("/snap/core20/1234/usr/bin/python3");
        vfs.create_file(&real, b"python".to_vec(), Mode::EXEC)
            .unwrap();
        // The kernel inside the sandbox sees the truncated path.
        let truncated = p("/usr/bin/python3");
        ima.on_exec(&vfs, &real, &truncated, &mut tpm).unwrap();
        assert_eq!(ima.log().entries()[0].path, "/usr/bin/python3");
    }

    #[test]
    fn module_load_measured() {
        let (mut vfs, mut tpm, mut ima) = setup();
        let module = p("/lib/modules/diamorphine.ko");
        vfs.create_file(&module, b"ko".to_vec(), Mode::REGULAR)
            .unwrap();
        assert_eq!(
            ima.on_module_load(&vfs, &module, &mut tpm).unwrap(),
            MeasureOutcome::Measured
        );
    }

    #[test]
    fn mmap_exec_measured_and_cached() {
        let (mut vfs, mut tpm, mut ima) = setup();
        let lib = p("/usr/lib/libc.so.6");
        vfs.create_file(&lib, b"libc".to_vec(), Mode::EXEC).unwrap();
        assert_eq!(
            ima.on_mmap_exec(&vfs, &lib, &lib, &mut tpm).unwrap(),
            MeasureOutcome::Measured
        );
        assert_eq!(
            ima.on_mmap_exec(&vfs, &lib, &lib, &mut tpm).unwrap(),
            MeasureOutcome::Cached
        );
    }
}

#[cfg(test)]
mod hardlink_evasion_tests {
    use super::*;
    use cia_tpm::Manufacturer;
    use cia_vfs::Mode;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn p(s: &str) -> VfsPath {
        VfsPath::new(s).unwrap()
    }

    /// A P4 variant the paper's inode-cache analysis implies: a hard link
    /// gives an already-measured inode a second name, and stock IMA never
    /// measures the new name. The re-evaluation fix closes this the same
    /// way it closes the rename case.
    #[test]
    fn hardlink_alias_is_not_remeasured_like_p4() {
        let mut rng = StdRng::seed_from_u64(44);
        let m = Manufacturer::generate(&mut rng);
        let mut tpm = cia_tpm::Tpm::manufacture(&m, &mut rng);
        let mut vfs = Vfs::with_standard_layout();

        let staged = p("/tmp/payload");
        let alias = p("/usr/bin/payload");
        vfs.create_file(&staged, b"evil".to_vec(), Mode::EXEC)
            .unwrap();
        vfs.hardlink(&staged, &alias).unwrap();

        // Stock IMA: measured once under /tmp, the alias execution hits
        // the cache.
        let mut stock = Ima::new(ImaPolicy::keylime_default());
        assert_eq!(
            stock.on_exec(&vfs, &staged, &staged, &mut tpm).unwrap(),
            MeasureOutcome::Measured
        );
        assert_eq!(
            stock.on_exec(&vfs, &alias, &alias, &mut tpm).unwrap(),
            MeasureOutcome::Cached
        );
        assert_eq!(stock.log().entries()[0].path, "/tmp/payload");

        // With the re-evaluation fix, the alias path is measured too.
        let mut tpm2 = cia_tpm::Tpm::manufacture(&m, &mut rng);
        let mut fixed = Ima::with_config(
            ImaPolicy::keylime_default(),
            ImaConfig {
                reevaluate_on_path_change: true,
                script_exec_control: false,
            },
        );
        fixed.on_exec(&vfs, &staged, &staged, &mut tpm2).unwrap();
        assert_eq!(
            fixed.on_exec(&vfs, &alias, &alias, &mut tpm2).unwrap(),
            MeasureOutcome::Measured
        );
        assert_eq!(fixed.log().entries()[1].path, "/usr/bin/payload");
    }
}
