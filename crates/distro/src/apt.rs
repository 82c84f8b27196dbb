//! The apt-like update manager: installs package files into a machine.

use std::collections::BTreeMap;

use cia_crypto::SigningKey;
use cia_vfs::{Mode, Vfs, VfsError, VfsPath};
use serde::{Deserialize, Serialize};

use crate::package::{Package, Version};

/// What one `upgrade` run did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpgradeReport {
    /// Packages installed or upgraded, with the new version.
    pub upgraded: Vec<(String, Version)>,
    /// Number of files written into the filesystem.
    pub files_written: usize,
    /// Nominal bytes downloaded (cost-model volume).
    pub nominal_bytes: u64,
    /// Kernel release staged by this run, if a kernel package was among
    /// the upgrades. The new kernel does not run until reboot.
    pub kernel_staged: Option<String>,
}

/// Tracks installed package versions and performs installs/upgrades.
///
/// Kernel packages are special-cased per §III-C: their files are written
/// under `/boot/vmlinuz-<release>` and `/lib/modules/<release>/...`, the
/// release is recorded as *staged*, and only a reboot (handled by the
/// machine simulator) makes it the running kernel.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct UpdateManager {
    installed: BTreeMap<String, Version>,
    staged_kernels: Vec<String>,
}

impl UpdateManager {
    /// A manager with nothing installed.
    pub fn new() -> Self {
        Self::default()
    }

    /// The installed version of `name`, if any.
    pub fn installed_version(&self, name: &str) -> Option<&Version> {
        self.installed.get(name)
    }

    /// Iterates over `(name, version)` of everything installed.
    pub fn installed(&self) -> impl Iterator<Item = (&String, &Version)> {
        self.installed.iter()
    }

    /// Kernel releases installed but not yet booted.
    pub fn staged_kernels(&self) -> &[String] {
        &self.staged_kernels
    }

    /// Marks a staged kernel as consumed (called by the machine on
    /// reboot); returns the most recently staged release, if any.
    pub fn take_latest_staged_kernel(&mut self) -> Option<String> {
        let latest = self.staged_kernels.last().cloned();
        self.staged_kernels.clear();
        latest
    }

    /// Installs (or upgrades to) `pkg`, writing its files into `vfs`.
    ///
    /// Existing files are overwritten in place — same inode, bumped
    /// `i_version` — exactly how dpkg's unpack appears to IMA.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (e.g. a file where a directory is
    /// needed).
    pub fn install(&mut self, vfs: &mut Vfs, pkg: &Package) -> Result<UpgradeReport, VfsError> {
        let mut report = UpgradeReport::default();
        let kernel_release = pkg.kernel_release();
        for file in &pkg.files {
            let path_str = match &kernel_release {
                Some(release) => rewrite_kernel_path(&file.install_path, release),
                None => file.install_path.clone(),
            };
            let path = VfsPath::new(&path_str)?;
            if let Some(parent) = path.parent() {
                vfs.mkdir_p(&parent)?;
            }
            let mode = if file.executable {
                Mode::EXEC
            } else {
                Mode::REGULAR
            };
            vfs.write_file(&path, file.content(), mode)?;
            report.files_written += 1;
            report.nominal_bytes += file.nominal_size;
        }
        if let Some(release) = kernel_release {
            self.staged_kernels.push(release.clone());
            report.kernel_staged = Some(release);
        }
        self.installed.insert(pkg.name.clone(), pkg.version.clone());
        report
            .upgraded
            .push((pkg.name.clone(), pkg.version.clone()));
        Ok(report)
    }

    /// Like [`UpdateManager::install`], but also writes an IMA-appraisal
    /// signature (`security.ima` xattr) for every executable, as a
    /// dpkg hook on an appraisal-enforcing system would.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn install_signed(
        &mut self,
        vfs: &mut Vfs,
        pkg: &Package,
        key: &SigningKey,
    ) -> Result<UpgradeReport, VfsError> {
        let report = self.install(vfs, pkg)?;
        let kernel_release = pkg.kernel_release();
        for file in pkg.executable_files() {
            let path_str = match &kernel_release {
                Some(release) => rewrite_kernel_path(&file.install_path, release),
                None => file.install_path.clone(),
            };
            let path = VfsPath::new(&path_str)?;
            let digest = vfs.file_digest(&path, cia_crypto::HashAlgorithm::Sha256)?;
            let signature = key.sign(digest.as_bytes());
            let blob = serde_json::to_vec(&SignedXattr {
                key_id: key.verifying_key().fingerprint(),
                signature,
            })
            .expect("xattr blob serializes");
            vfs.set_xattr(&path, "security.ima", blob)?;
        }
        Ok(report)
    }

    /// Upgrades every installed package for which `available` carries a
    /// newer version, and installs nothing new. This is `apt upgrade`
    /// against a configured source (mirror or upstream).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; earlier installs stay applied.
    pub fn upgrade_all<'a>(
        &mut self,
        vfs: &mut Vfs,
        available: impl Iterator<Item = &'a Package>,
    ) -> Result<UpgradeReport, VfsError> {
        let mut report = UpgradeReport::default();
        for pkg in available {
            let newer = match self.installed.get(&pkg.name) {
                Some(cur) => pkg.version > *cur,
                None => false,
            };
            if newer {
                let r = self.install(vfs, pkg)?;
                report.upgraded.extend(r.upgraded);
                report.files_written += r.files_written;
                report.nominal_bytes += r.nominal_bytes;
                if r.kernel_staged.is_some() {
                    report.kernel_staged = r.kernel_staged;
                }
            }
        }
        Ok(report)
    }
}

/// The `security.ima` payload layout shared with `cia-ima::appraise`
/// (duplicated here to keep the dependency graph acyclic; the format is
/// pinned by cross-crate tests).
#[derive(serde::Serialize)]
struct SignedXattr {
    key_id: String,
    signature: cia_crypto::Signature,
}

/// Rewrites a kernel package's template paths to versioned install paths
/// (`/boot/vmlinuz` → `/boot/vmlinuz-<release>`, `/lib/modules/kernel/…` →
/// `/lib/modules/<release>/…`). Used by both the update manager and the
/// dynamic policy generator so their views of kernel files agree.
pub fn rewrite_kernel_path(template: &str, release: &str) -> String {
    if template == "/boot/vmlinuz" {
        format!("/boot/vmlinuz-{release}")
    } else if let Some(rest) = template.strip_prefix("/lib/modules/kernel/") {
        format!("/lib/modules/{release}/{rest}")
    } else {
        template.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::package::{PackageFile, Pocket, Priority};
    use cia_crypto::HashAlgorithm;

    fn pkg(name: &str, rev: u32) -> Package {
        Package {
            name: name.into(),
            version: Version {
                upstream: "1".into(),
                revision: rev,
            },
            priority: Priority::Optional,
            pocket: Pocket::Main,
            files: vec![
                PackageFile {
                    install_path: format!("/usr/bin/{name}"),
                    executable: true,
                    nominal_size: 5000,
                    content_seed: rev as u64 * 1000,
                },
                PackageFile {
                    install_path: format!("/usr/share/{name}.conf"),
                    executable: false,
                    nominal_size: 100,
                    content_seed: rev as u64 * 1000 + 1,
                },
            ],
            is_kernel: false,
        }
    }

    fn kernel(rev: u32) -> Package {
        Package {
            name: "linux-image-generic".into(),
            version: Version {
                upstream: "5.15.0".into(),
                revision: rev,
            },
            priority: Priority::Optional,
            pocket: Pocket::Updates,
            files: vec![
                PackageFile {
                    install_path: "/boot/vmlinuz".into(),
                    executable: false,
                    nominal_size: 10_000_000,
                    content_seed: rev as u64,
                },
                PackageFile {
                    install_path: "/lib/modules/kernel/drivers/e1000.ko".into(),
                    executable: true,
                    nominal_size: 50_000,
                    content_seed: rev as u64 + 1,
                },
            ],
            is_kernel: true,
        }
    }

    #[test]
    fn install_writes_files_with_modes() {
        let mut vfs = Vfs::with_standard_layout();
        let mut apt = UpdateManager::new();
        apt.install(&mut vfs, &pkg("curl", 1)).unwrap();
        let bin = VfsPath::new("/usr/bin/curl").unwrap();
        let conf = VfsPath::new("/usr/share/curl.conf").unwrap();
        assert!(vfs.metadata(&bin).unwrap().mode.is_executable());
        assert!(!vfs.metadata(&conf).unwrap().mode.is_executable());
        assert_eq!(apt.installed_version("curl").unwrap().revision, 1);
    }

    #[test]
    fn upgrade_overwrites_in_place() {
        let mut vfs = Vfs::with_standard_layout();
        let mut apt = UpdateManager::new();
        apt.install(&mut vfs, &pkg("curl", 1)).unwrap();
        let bin = VfsPath::new("/usr/bin/curl").unwrap();
        let before = vfs.metadata(&bin).unwrap();
        let d1 = vfs.file_digest(&bin, HashAlgorithm::Sha256).unwrap();

        apt.install(&mut vfs, &pkg("curl", 2)).unwrap();
        let after = vfs.metadata(&bin).unwrap();
        let d2 = vfs.file_digest(&bin, HashAlgorithm::Sha256).unwrap();
        assert_eq!(before.file_id, after.file_id, "dpkg-style in-place rewrite");
        assert!(after.iversion > before.iversion);
        assert_ne!(d1, d2, "new version hashes differently");
    }

    #[test]
    fn upgrade_all_only_touches_outdated_installed() {
        let mut vfs = Vfs::with_standard_layout();
        let mut apt = UpdateManager::new();
        apt.install(&mut vfs, &pkg("a", 1)).unwrap();
        apt.install(&mut vfs, &pkg("b", 2)).unwrap();

        let available = [pkg("a", 2), pkg("b", 2), pkg("c", 1)];
        let report = apt.upgrade_all(&mut vfs, available.iter()).unwrap();
        assert_eq!(report.upgraded.len(), 1);
        assert_eq!(report.upgraded[0].0, "a");
        assert!(
            apt.installed_version("c").is_none(),
            "upgrade installs nothing new"
        );
        assert_eq!(report.files_written, 2);
        assert_eq!(report.nominal_bytes, 5100);
    }

    #[test]
    fn kernel_staged_not_active() {
        let mut vfs = Vfs::with_standard_layout();
        let mut apt = UpdateManager::new();
        let report = apt.install(&mut vfs, &kernel(77)).unwrap();
        assert_eq!(report.kernel_staged.as_deref(), Some("5.15.0-77"));
        assert_eq!(apt.staged_kernels(), ["5.15.0-77".to_string()]);
        assert!(vfs.exists(&VfsPath::new("/boot/vmlinuz-5.15.0-77").unwrap()));
        assert!(vfs.exists(&VfsPath::new("/lib/modules/5.15.0-77/drivers/e1000.ko").unwrap()));

        // Reboot consumes the staged kernel.
        assert_eq!(
            apt.take_latest_staged_kernel().as_deref(),
            Some("5.15.0-77")
        );
        assert!(apt.staged_kernels().is_empty());
    }

    #[test]
    fn two_staged_kernels_latest_wins() {
        let mut vfs = Vfs::with_standard_layout();
        let mut apt = UpdateManager::new();
        apt.install(&mut vfs, &kernel(77)).unwrap();
        apt.install(&mut vfs, &kernel(78)).unwrap();
        assert_eq!(
            apt.take_latest_staged_kernel().as_deref(),
            Some("5.15.0-78")
        );
    }
}
