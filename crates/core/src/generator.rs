//! The dynamic policy generator.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};

use cia_crypto::{DigestCache, HashAlgorithm, Sha256};
use cia_distro::mirror::MirrorDiff;
use cia_distro::{rewrite_kernel_path, Mirror, Package, PackageFile, Snap};
use cia_keylime::{PolicyDelta, RuntimePolicy};
use serde::{Deserialize, Serialize};

/// Default size of the package-hashing worker pool.
pub const DEFAULT_HASH_WORKERS: usize = 4;

/// Configuration of the generator.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Exclude prefixes carried into every generated policy. The studied
    /// policy shipped `/tmp` here (P1); the §IV-C mitigation is an empty
    /// list.
    pub excludes: Vec<String>,
    /// §III-C SNAP mitigation (a): also record SNAP executables under
    /// their truncated in-sandbox paths so measured SNAP entries match.
    pub snap_scrubbing: bool,
    /// Worker threads hashing package executables. The digest cache is
    /// prefilled in parallel; report assembly stays serial in input
    /// order, so the generated policy and report are bit-identical for
    /// any worker count (a property test pins {1, 4, 8}).
    pub hash_workers: usize,
}

impl GeneratorConfig {
    /// The configuration studied in the paper's FP experiments: `/tmp`
    /// excluded (inherited from the original policy), SNAP scrubbing on.
    pub fn paper_default() -> Self {
        GeneratorConfig {
            excludes: vec!["/tmp".to_string()],
            snap_scrubbing: true,
            hash_workers: DEFAULT_HASH_WORKERS,
        }
    }

    /// The §IV-C "enriched" configuration: no directory excludes.
    pub fn enriched() -> Self {
        GeneratorConfig {
            excludes: Vec::new(),
            snap_scrubbing: true,
            hash_workers: DEFAULT_HASH_WORKERS,
        }
    }
}

/// What one [`DynamicPolicyGenerator::finish_update_window_stats`] pass
/// did, in timing-free operation counts (regression tests gate on these
/// instead of wall-clock).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DedupStats {
    /// Distinct paths examined — exactly one retain pass runs per path,
    /// however many times it was touched during the window.
    pub distinct_paths: usize,
    /// Duplicate touch records skipped by the sort+dedup (the old
    /// implementation ran a full retain pass for each of these).
    pub duplicates_skipped: usize,
    /// Superseded digests dropped from the policy.
    pub digests_removed: usize,
}

/// What one generation pass did — the raw material for Figs. 3–5 and
/// Table I.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GenerationReport {
    /// Simulation day of the pass.
    pub day: u32,
    /// New/changed packages with executables ingested (Fig. 4).
    pub packages: usize,
    /// ... of which high-priority (Table I).
    pub packages_high_priority: usize,
    /// Brand-new packages (vs. version changes).
    pub packages_added: usize,
    /// `(path, digest)` lines appended to the policy (Fig. 5).
    pub lines_added: usize,
    /// Approximate bytes those lines add to the policy file.
    pub policy_bytes_added: u64,
    /// Nominal bytes downloaded + hashed (drives the cost model / Fig. 3).
    pub nominal_bytes: u64,
    /// Executable files hashed.
    pub files_hashed: usize,
    /// Policy line count after the pass.
    pub policy_lines_total: usize,
}

/// The generator: owns the evolving policy and the bookkeeping needed for
/// incremental updates, post-update deduplication, and kernel staging.
#[derive(Debug)]
pub struct DynamicPolicyGenerator {
    config: GeneratorConfig,
    policy: RuntimePolicy,
    /// path → latest digest, used to deduplicate after update windows.
    canonical: BTreeMap<String, String>,
    /// Entries updated since the last dedup (their old digests are still
    /// in the policy for update-window consistency).
    pending_dedup: Vec<String>,
    /// Kernel release currently running on the fleet.
    active_kernel: String,
    /// Digest lists for kernels that are installed but not yet booted.
    staged_kernels: BTreeMap<String, Vec<(String, String)>>,
    /// Module/vmlinuz paths of the active kernel (dropped when it is
    /// superseded after a reboot).
    active_kernel_paths: Vec<String>,
    /// Entry operations since the last [`DynamicPolicyGenerator::take_delta`]
    /// — the O(changed) update a verifier's policy store replays instead
    /// of receiving the whole policy again.
    pending_delta: PolicyDelta,
    /// Content-addressed digest cache: package file contents are pure
    /// functions of their `content_seed`, so the seed is the identity key
    /// and a file rebuilt under a new path (kernel rewrites, re-syncs)
    /// never hashes twice.
    digest_cache: DigestCache,
}

impl DynamicPolicyGenerator {
    /// Generates the initial policy from a fully synced mirror: every
    /// executable of every mirrored package is hashed and recorded, with
    /// kernel packages mapped to `active_kernel`'s paths only.
    pub fn generate_initial(
        mirror: &Mirror,
        active_kernel: &str,
        day: u32,
        config: GeneratorConfig,
    ) -> (Self, GenerationReport) {
        let mut generator = DynamicPolicyGenerator {
            config,
            policy: RuntimePolicy::new(),
            canonical: BTreeMap::new(),
            pending_dedup: Vec::new(),
            active_kernel: active_kernel.to_string(),
            staged_kernels: BTreeMap::new(),
            active_kernel_paths: Vec::new(),
            pending_delta: PolicyDelta::default(),
            digest_cache: DigestCache::new(),
        };
        for prefix in generator.config.excludes.clone() {
            generator.policy.exclude(prefix);
        }
        generator.policy.meta.generator = "dynamic-policy-generator".to_string();

        let mut report = GenerationReport {
            day,
            ..GenerationReport::default()
        };
        let packages: Vec<&Package> = mirror.packages().collect();
        generator.prehash(packages.iter().flat_map(|p| p.executable_files()));
        for pkg in packages {
            generator.ingest_package(pkg, true, &mut report);
        }
        generator.policy.meta.version = 1;
        generator.policy.meta.generated_day = day;
        report.policy_lines_total = generator.policy.line_count();
        // The initial policy is distributed whole; the delta stream
        // starts from it.
        generator.pending_delta = PolicyDelta::default();
        (generator, report)
    }

    /// The active generator configuration.
    pub fn config(&self) -> &GeneratorConfig {
        &self.config
    }

    /// The current policy. Push it whole once (initial enrolment), then
    /// distribute [`DynamicPolicyGenerator::take_delta`]s.
    pub fn policy(&self) -> &RuntimePolicy {
        &self.policy
    }

    /// Takes the entry operations accumulated since the last call, as a
    /// [`PolicyDelta`] stamped with the current policy metadata. Applying
    /// it to a replica of the previous take's policy reproduces
    /// [`DynamicPolicyGenerator::policy`] exactly (a property test pins
    /// this over arbitrary mirror histories), so fleet distribution costs
    /// O(changed entries) instead of O(policy).
    pub fn take_delta(&mut self) -> PolicyDelta {
        let mut delta = std::mem::take(&mut self.pending_delta);
        // Retire records replay *after* all adds, so only the last retire
        // per path describes the final state — earlier ones would resurrect
        // nothing but can wrongly out-survive a later add. Keep the last.
        if delta.retired.len() > 1 {
            let mut seen = BTreeSet::new();
            let mut kept: Vec<(String, String)> = delta
                .retired
                .drain(..)
                .rev()
                .filter(|(path, _)| seen.insert(path.clone()))
                .collect();
            kept.reverse();
            delta.retired = kept;
        }
        // A surviving retire is only faithful if nothing touched the path
        // since the dedup pass (its digest set is exactly {keep}). When
        // later adds landed — e.g. the same binary updated again before
        // the delta was taken — replaying "retire all but keep" last
        // would wrongly drop them. Rewrite such paths as a removal plus a
        // re-add of their final digest set, which replays exactly.
        let conflicted: BTreeSet<String> = delta
            .retired
            .iter()
            .filter(|(path, keep)| {
                !matches!(self.policy.digests_for(path),
                          Some(set) if set.len() == 1 && set.contains(keep))
            })
            .map(|(path, _)| path.clone())
            .collect();
        if !conflicted.is_empty() {
            delta.retired.retain(|(path, _)| !conflicted.contains(path));
            delta.added.retain(|(path, _)| !conflicted.contains(path));
            for path in conflicted {
                delta.removed_paths.push(path.clone());
                if let Some(set) = self.policy.digests_for(&path) {
                    delta
                        .added
                        .extend(set.iter().map(|d| (path.clone(), d.clone())));
                }
            }
        }
        delta.meta = self.policy.meta.clone();
        delta
    }

    /// The digest cache's lifetime hit/miss counters (cache effectiveness
    /// metric: a re-synced mirror re-hashes nothing).
    pub fn digest_cache_stats(&self) -> (u64, u64) {
        (
            self.digest_cache.hit_count(),
            self.digest_cache.miss_count(),
        )
    }

    /// The kernel release the policy currently authorises.
    pub fn active_kernel(&self) -> &str {
        &self.active_kernel
    }

    /// Incremental pass over a mirror diff: hashes the executables of the
    /// new/changed packages and appends their digests. Old digests are
    /// retained until [`DynamicPolicyGenerator::finish_update_window`].
    pub fn apply_diff(&mut self, diff: &MirrorDiff, day: u32) -> GenerationReport {
        let mut report = GenerationReport {
            day,
            packages_added: diff.added.iter().filter(|p| p.has_executables()).count(),
            ..GenerationReport::default()
        };
        self.prehash(diff.executable_files());
        for pkg in diff.iter() {
            self.ingest_package(pkg, false, &mut report);
        }
        self.policy.meta.version += 1;
        self.policy.meta.generated_day = day;
        report.policy_lines_total = self.policy.line_count();
        report
    }

    /// §V extension — maintainer-signed manifests: ingests a batch of
    /// [`cia_distro::SignedManifest`]s instead of downloading and hashing
    /// the packages locally. Every manifest is verified against the
    /// operator's trust store first; one bad signature aborts the whole
    /// pass with nothing applied.
    ///
    /// Compared to [`DynamicPolicyGenerator::apply_diff`] this removes
    /// the download + hash cost entirely (`nominal_bytes` stays 0 — only
    /// the manifests travel) and shifts trust from operator-side hashing
    /// to the maintainers' signatures, as the paper suggests.
    ///
    /// # Errors
    ///
    /// [`cia_distro::ManifestError`] when a manifest is unsigned by a
    /// trusted maintainer or fails verification.
    pub fn apply_signed_manifests(
        &mut self,
        manifests: &[cia_distro::SignedManifest],
        authority: &cia_distro::ManifestAuthority,
        day: u32,
    ) -> Result<GenerationReport, cia_distro::ManifestError> {
        // Verify everything before applying anything.
        for signed in manifests {
            authority.verify(signed)?;
        }
        let mut report = GenerationReport {
            day,
            ..GenerationReport::default()
        };
        for signed in manifests {
            let manifest = &signed.manifest;
            if manifest.entries.is_empty() {
                continue;
            }
            report.packages += 1;
            if manifest.is_kernel {
                let release = format!(
                    "{}-{}",
                    manifest.version.upstream, manifest.version.revision
                );
                let entries: Vec<(String, String)> = manifest
                    .entries
                    .iter()
                    .map(|(path, digest)| (rewrite_kernel_path(path, &release), digest.clone()))
                    .collect();
                if release == self.active_kernel {
                    for (path, digest) in entries {
                        self.record_entry(path, digest, &mut report);
                    }
                } else {
                    self.stage_kernel(release, entries);
                }
                continue;
            }
            for (path, digest) in &manifest.entries {
                self.record_entry(path.clone(), digest.clone(), &mut report);
            }
        }
        self.policy.meta.version += 1;
        self.policy.meta.generated_day = day;
        report.policy_lines_total = self.policy.line_count();
        Ok(report)
    }

    /// Fans the digest work for `files` out across the configured worker
    /// pool and fills the content-addressed cache. The to-do list holds
    /// each uncached content identity once; workers claim its files by
    /// index and hand their `(seed, digest)` pairs back through their
    /// join handles, and the cache is filled after the join. Each digest
    /// is a function of its seed alone, and the serial ingest that
    /// follows assembles policy and report in input order from cache
    /// hits — which is what keeps generation bit-identical across worker
    /// counts.
    fn prehash<'a>(&mut self, files: impl Iterator<Item = &'a PackageFile>) {
        let mut seen = BTreeSet::new();
        let todo: Vec<&PackageFile> = files
            .filter(|f| !self.digest_cache.contains(f.content_seed) && seen.insert(f.content_seed))
            .collect();
        let workers = self.config.hash_workers.max(1).min(todo.len());
        // Workers claim files by bumping a shared index. `Relaxed` is
        // enough: the index publishes no data, as `todo` is read-only.
        let next = AtomicUsize::new(0);
        let work = || {
            let mut digests = Vec::new();
            while let Some(file) = todo.get(next.fetch_add(1, Ordering::Relaxed)) {
                digests.push((file.content_seed, hash_file_content(&file.content())));
            }
            digests
        };
        let digests = if workers <= 1 {
            work()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                    .collect()
            })
        };
        for (seed, digest) in digests {
            self.digest_cache.insert(seed, digest);
        }
    }

    /// The digest of one package file, served from the content-addressed
    /// cache (prefilled by [`DynamicPolicyGenerator::prehash`]).
    fn hash_file(&mut self, file: &PackageFile) -> String {
        self.digest_cache
            .get_or_compute(file.content_seed, || hash_file_content(&file.content()))
    }

    /// Hashes one package's executables into the policy.
    fn ingest_package(&mut self, pkg: &Package, initial: bool, report: &mut GenerationReport) {
        if !pkg.has_executables() {
            return;
        }
        report.packages += 1;
        if pkg.priority.is_high() {
            report.packages_high_priority += 1;
        }

        if let Some(release) = pkg.kernel_release() {
            self.ingest_kernel(pkg, &release, initial, report);
            return;
        }

        for file in pkg.executable_files() {
            let digest = self.hash_file(file);
            report.nominal_bytes += file.nominal_size;
            report.files_hashed += 1;
            self.record_entry(file.install_path.clone(), digest, report);
        }
    }

    /// Kernel packages: only the *active* kernel's files enter the policy
    /// directly. Other releases are staged until their reboot.
    fn ingest_kernel(
        &mut self,
        pkg: &Package,
        release: &str,
        initial: bool,
        report: &mut GenerationReport,
    ) {
        let mut entries = Vec::new();
        for file in pkg.executable_files() {
            let path = rewrite_kernel_path(&file.install_path, release);
            let digest = self.hash_file(file);
            report.nominal_bytes += file.nominal_size;
            report.files_hashed += 1;
            entries.push((path, digest));
        }
        if initial || release == self.active_kernel {
            self.active_kernel_paths = entries.iter().map(|(p, _)| p.clone()).collect();
            if initial {
                self.active_kernel = release.to_string();
            }
            for (path, digest) in entries {
                self.record_entry(path, digest, report);
            }
        } else {
            // §III-C: "when a machine performs an update without
            // rebooting, the policy can tentatively ignore the new
            // kernels" — stage until boot.
            self.stage_kernel(release.to_string(), entries);
        }
    }

    /// Stages a not-yet-active kernel's entries and records the staging
    /// in the pending delta (informational: staged entries are not policy
    /// operations until the reboot).
    fn stage_kernel(&mut self, release: String, entries: Vec<(String, String)>) {
        if !self.pending_delta.staged_kernels.contains(&release) {
            self.pending_delta.staged_kernels.push(release.clone());
        }
        self.staged_kernels.insert(release, entries);
    }

    fn record_entry(&mut self, path: String, digest: String, report: &mut GenerationReport) {
        let changed = !matches!(self.canonical.get(&path), Some(existing) if existing == &digest);
        if changed {
            self.policy.allow(path.clone(), digest.clone());
            report.lines_added += 1;
            report.policy_bytes_added += path.len() as u64 + 64 + 3;
            self.pending_delta
                .added
                .push((path.clone(), digest.clone()));
            self.canonical.insert(path.clone(), digest);
            self.pending_dedup.push(path);
        }
    }

    /// Post-update deduplication (§III-C): drops superseded digests for
    /// every path touched since the last call, returning how many were
    /// removed.
    pub fn finish_update_window(&mut self) -> usize {
        self.finish_update_window_stats().digests_removed
    }

    /// Like [`DynamicPolicyGenerator::finish_update_window`] but returns
    /// operation counts.
    ///
    /// One linear pass: the touched-path log is sorted and deduplicated,
    /// then exactly one retain pass runs per *distinct* path — and only
    /// when the path actually carries a superseded digest. (The first
    /// implementation ran a retain pass per touch record, so a path
    /// updated k times in a window cost k full scans — quadratic over a
    /// busy window.)
    pub fn finish_update_window_stats(&mut self) -> DedupStats {
        let mut pending = std::mem::take(&mut self.pending_dedup);
        let touches = pending.len();
        pending.sort_unstable();
        pending.dedup();
        let mut stats = DedupStats {
            distinct_paths: pending.len(),
            duplicates_skipped: touches - pending.len(),
            digests_removed: 0,
        };
        for path in pending {
            let Some(latest) = self.canonical.get(&path) else {
                continue;
            };
            let stale = self
                .policy
                .digests_for(&path)
                .map_or(0, |set| set.len().saturating_sub(1));
            if stale > 0 {
                self.policy.dedup_retain(&path, latest);
                stats.digests_removed += stale;
                self.pending_delta.retired.push((path, latest.clone()));
            }
        }
        stats
    }

    /// Called when the fleet reboots into `release` (which must have been
    /// staged or already active): its entries join the policy and the
    /// outdated kernel's module entries are disallowed.
    ///
    /// Returns `true` when the policy changed.
    pub fn on_kernel_boot(&mut self, release: &str) -> bool {
        if release == self.active_kernel {
            return false;
        }
        let Some(entries) = self.staged_kernels.remove(release) else {
            return false;
        };
        // Disallow the outdated kernel's files.
        let removed: BTreeSet<String> = std::mem::take(&mut self.active_kernel_paths)
            .into_iter()
            .collect();
        for path in &removed {
            self.policy.remove_path(path);
            self.canonical.remove(path);
        }
        // Delta replay applies removals before adds: scrub pending adds
        // (and now-moot retires) for the removed paths so they don't
        // resurrect the retired kernel on a replica, then record the
        // removals.
        self.pending_delta
            .added
            .retain(|(path, _)| !removed.contains(path));
        self.pending_delta
            .retired
            .retain(|(path, _)| !removed.contains(path));
        self.pending_delta.removed_paths.extend(removed);
        // The staged release is active now, not pending-staged.
        self.pending_delta.staged_kernels.retain(|r| r != release);
        self.active_kernel_paths = entries.iter().map(|(p, _)| p.clone()).collect();
        for (path, digest) in entries {
            self.policy.allow(path.clone(), digest.clone());
            self.pending_delta
                .added
                .push((path.clone(), digest.clone()));
            self.canonical.insert(path, digest);
        }
        self.active_kernel = release.to_string();
        self.policy.meta.version += 1;
        true
    }

    /// §III-C SNAP handling: record a snap's executables under their
    /// truncated in-sandbox paths (no-op when `snap_scrubbing` is off).
    pub fn include_snap(&mut self, snap: &Snap) {
        if !self.config.snap_scrubbing {
            return;
        }
        for (rel, content, executable) in &snap.files {
            if *executable {
                let digest = hash_file_content(content);
                let truncated = if rel.starts_with('/') {
                    rel.clone()
                } else {
                    format!("/{rel}")
                };
                self.policy.allow(truncated.clone(), digest.clone());
                self.pending_delta
                    .added
                    .push((truncated.clone(), digest.clone()));
                self.canonical.insert(truncated, digest);
            }
        }
    }
}

/// SHA-256 of file content as lowercase hex — the measurement the policy
/// stores, identical to what IMA records.
pub fn hash_file_content(content: &[u8]) -> String {
    let mut h = Sha256::new();
    h.update(content);
    h.finalize().to_hex()
}

/// Hex digest of a file's contents under SHA-256, for parity checks in
/// tests.
pub fn digest_hex(content: &[u8]) -> String {
    HashAlgorithm::Sha256.digest(content).to_hex()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cia_distro::{
        PackageFile, Pocket, Priority, ReleaseEvent, ReleaseStream, Repository, StreamProfile,
        Version,
    };

    fn synced_mirror() -> (cia_distro::ReleaseStream, Repository, Mirror) {
        let (stream, repo) = ReleaseStream::new(StreamProfile::small(21));
        let mut mirror = Mirror::new();
        mirror.sync(&repo, 0);
        (stream, repo, mirror)
    }

    #[test]
    fn initial_generation_covers_mirror() {
        let (_, _, mirror) = synced_mirror();
        let (generator, report) = DynamicPolicyGenerator::generate_initial(
            &mirror,
            "5.15.0-76",
            0,
            GeneratorConfig::paper_default(),
        );
        let expected_lines: usize = mirror
            .packages()
            .map(|p| p.executable_files().count())
            .sum();
        assert_eq!(report.lines_added, expected_lines);
        assert_eq!(generator.policy().line_count(), expected_lines);
        assert_eq!(report.files_hashed, expected_lines);
        assert!(generator.policy().is_excluded("/tmp/x"));
    }

    #[test]
    fn incremental_diff_appends_and_retains() {
        let (mut stream, mut repo, mut mirror) = synced_mirror();
        let (mut generator, _) = DynamicPolicyGenerator::generate_initial(
            &mirror,
            "5.15.0-76",
            0,
            GeneratorConfig::paper_default(),
        );

        // Find a real update day.
        let mut diff = None;
        for day in 1..60 {
            repo.apply_release(&stream.next_day());
            let d = mirror.sync(&repo, day);
            if !d.is_empty() && d.changed.iter().any(|p| !p.is_kernel) {
                diff = Some((day, d));
                break;
            }
        }
        let (day, diff) = diff.expect("stream produced an update");
        let changed_pkg = diff.changed.iter().find(|p| !p.is_kernel).unwrap().clone();
        let old_digest = generator
            .policy()
            .digests_for(&changed_pkg.files[0].install_path)
            .unwrap()
            .iter()
            .next()
            .unwrap()
            .clone();

        let report = generator.apply_diff(&diff, day);
        assert!(report.lines_added > 0);
        assert_eq!(report.day, day);

        // Update-window consistency: both digests allowed.
        let path = &changed_pkg.files[0].install_path;
        let set = generator.policy().digests_for(path).unwrap();
        assert!(set.contains(&old_digest));
        assert!(set.contains(&hash_file_content(&changed_pkg.files[0].content())));

        // Post-update dedup drops the stale digest.
        let removed = generator.finish_update_window();
        assert!(removed > 0);
        let set = generator.policy().digests_for(path).unwrap();
        assert_eq!(set.len(), 1);
        assert!(set.contains(&hash_file_content(&changed_pkg.files[0].content())));
    }

    #[test]
    fn unchanged_sync_adds_nothing() {
        let (_, repo, mut mirror) = synced_mirror();
        let (mut generator, _) = DynamicPolicyGenerator::generate_initial(
            &mirror,
            "5.15.0-76",
            0,
            GeneratorConfig::paper_default(),
        );
        let diff = mirror.sync(&repo, 1);
        let report = generator.apply_diff(&diff, 1);
        assert_eq!(report.lines_added, 0);
        assert_eq!(report.packages, 0);
    }

    fn kernel_pkg(rev: u32) -> Package {
        Package {
            name: "linux-image-generic".into(),
            version: Version {
                upstream: "5.15.0".into(),
                revision: rev,
            },
            priority: Priority::Optional,
            pocket: Pocket::Updates,
            files: vec![PackageFile {
                install_path: "/lib/modules/kernel/drivers/net.ko".into(),
                executable: true,
                nominal_size: 1000,
                content_seed: rev as u64,
            }],
            is_kernel: true,
        }
    }

    #[test]
    fn kernel_staging_until_reboot() {
        let repo = Repository::with_packages(vec![kernel_pkg(76)]);
        let mut mirror = Mirror::new();
        mirror.sync(&repo, 0);
        let (mut generator, _) = DynamicPolicyGenerator::generate_initial(
            &mirror,
            "5.15.0-76",
            0,
            GeneratorConfig::paper_default(),
        );
        let old_path = "/lib/modules/5.15.0-76/drivers/net.ko";
        let new_path = "/lib/modules/5.15.0-77/drivers/net.ko";
        assert!(generator.policy().digests_for(old_path).is_some());

        // Kernel update arrives: staged, NOT in policy yet.
        let mut repo2 = repo.clone();
        repo2.apply_release(&ReleaseEvent {
            day: 1,
            packages: vec![kernel_pkg(77)],
        });
        let diff = mirror.sync(&repo2, 1);
        generator.apply_diff(&diff, 1);
        assert!(
            generator.policy().digests_for(new_path).is_none(),
            "staged until boot"
        );
        assert!(generator.policy().digests_for(old_path).is_some());

        // Reboot into the new kernel: new modules allowed, old disallowed.
        assert!(generator.on_kernel_boot("5.15.0-77"));
        assert!(generator.policy().digests_for(new_path).is_some());
        assert!(generator.policy().digests_for(old_path).is_none());
        assert_eq!(generator.active_kernel(), "5.15.0-77");

        // Re-booting into the same kernel is a no-op.
        assert!(!generator.on_kernel_boot("5.15.0-77"));
    }

    #[test]
    fn snap_scrubbing_records_truncated_paths() {
        let (_, _, mirror) = synced_mirror();
        let (mut generator, _) = DynamicPolicyGenerator::generate_initial(
            &mirror,
            "5.15.0-76",
            0,
            GeneratorConfig::paper_default(),
        );
        let snap = Snap::core20(1234);
        generator.include_snap(&snap);
        let digest = hash_file_content(&snap.files[0].1);
        assert!(generator
            .policy()
            .digests_for("/usr/bin/python3")
            .unwrap()
            .contains(&digest));
    }

    #[test]
    fn signed_manifests_match_local_hashing() {
        use cia_distro::{Maintainer, ManifestAuthority};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let (mut stream, mut repo, mut mirror) = synced_mirror();
        let make_generator = || {
            DynamicPolicyGenerator::generate_initial(
                &mirror,
                "5.15.0-76",
                0,
                GeneratorConfig::paper_default(),
            )
            .0
        };
        let mut local = make_generator();
        let mut remote = make_generator();

        // Find a non-trivial diff.
        let mut found = None;
        for day in 1..60 {
            repo.apply_release(&stream.next_day());
            let d = mirror.sync(&repo, day);
            if d.len() >= 2 {
                found = Some((day, d));
                break;
            }
        }
        let (day, diff) = found.unwrap();

        // Local hashing path.
        local.apply_diff(&diff, day);

        // Signed-manifest path: the maintainer signs each diffed package.
        let mut rng = StdRng::seed_from_u64(5);
        let maintainer = Maintainer::generate("canonical", &mut rng);
        let mut authority = ManifestAuthority::new();
        authority.trust(&maintainer);
        let manifests: Vec<_> = diff.iter().map(|p| maintainer.sign_package(p)).collect();
        let report = remote
            .apply_signed_manifests(&manifests, &authority, day)
            .unwrap();

        // Both paths produce the identical policy.
        assert_eq!(local.policy(), remote.policy());
        // The signed path moved no package bytes.
        assert_eq!(report.nominal_bytes, 0);
        assert!(report.lines_added == 0 || report.packages > 0);
    }

    #[test]
    fn signed_manifests_reject_forgery_atomically() {
        use cia_distro::{Maintainer, ManifestAuthority};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let (_, _, mirror) = synced_mirror();
        let (mut generator, _) = DynamicPolicyGenerator::generate_initial(
            &mirror,
            "5.15.0-76",
            0,
            GeneratorConfig::paper_default(),
        );
        let lines_before = generator.policy().line_count();

        let mut rng = StdRng::seed_from_u64(6);
        let maintainer = Maintainer::generate("canonical", &mut rng);
        let mut authority = ManifestAuthority::new();
        authority.trust(&maintainer);

        let good_pkg = mirror.packages().next().unwrap().clone();
        let good = maintainer.sign_package(&good_pkg);
        let mut bad = good.clone();
        bad.manifest.entries[0].1 = "ab".repeat(32); // backdoored digest

        let err = generator
            .apply_signed_manifests(&[good, bad], &authority, 1)
            .unwrap_err();
        assert!(matches!(
            err,
            cia_distro::ManifestError::BadSignature { .. }
        ));
        // Nothing — not even the good manifest — was applied.
        assert_eq!(generator.policy().line_count(), lines_before);
    }

    /// The generated policy and report must not depend on the hashing
    /// worker count — prehash only warms a content-addressed cache;
    /// assembly is serial in input order.
    #[test]
    fn generation_is_identical_across_worker_counts() {
        let run = |workers: usize| {
            let (mut stream, mut repo, mut mirror) = synced_mirror();
            let config = GeneratorConfig {
                hash_workers: workers,
                ..GeneratorConfig::paper_default()
            };
            let (mut generator, initial) =
                DynamicPolicyGenerator::generate_initial(&mirror, "5.15.0-76", 0, config);
            let mut reports = vec![initial];
            for day in 1..12 {
                repo.apply_release(&stream.next_day());
                let diff = mirror.sync(&repo, day);
                reports.push(generator.apply_diff(&diff, day));
                generator.finish_update_window();
            }
            (reports, generator.policy().to_json())
        };
        let (reports_1, policy_1) = run(1);
        for workers in [4, 8] {
            let (reports_n, policy_n) = run(workers);
            assert_eq!(reports_1, reports_n, "reports differ at {workers} workers");
            assert_eq!(policy_1, policy_n, "policy differs at {workers} workers");
        }
    }

    /// The digest cache makes re-ingesting unchanged content free: the
    /// second generator pass over the same mirror hashes nothing new.
    #[test]
    fn digest_cache_hits_on_unchanged_content() {
        let (mut stream, mut repo, mut mirror) = synced_mirror();
        let (mut generator, _) = DynamicPolicyGenerator::generate_initial(
            &mirror,
            "5.15.0-76",
            0,
            GeneratorConfig::paper_default(),
        );
        let (_, misses_initial) = generator.digest_cache_stats();
        assert!(misses_initial > 0, "initial generation computes digests");
        for day in 1..8 {
            repo.apply_release(&stream.next_day());
            let diff = mirror.sync(&repo, day);
            let changed_files: usize = diff.executable_files().count();
            let (_, before) = generator.digest_cache_stats();
            generator.apply_diff(&diff, day);
            let (_, after) = generator.digest_cache_stats();
            assert!(
                after - before <= changed_files as u64,
                "at most one digest computation per changed file"
            );
        }
    }

    /// Regression (perf): `finish_update_window` is one linear pass. A
    /// path touched k times in a window must trigger exactly one retain
    /// pass, not k — the stats expose the operation counts so the gate is
    /// timing-free.
    #[test]
    fn update_window_dedup_is_single_pass_per_path() {
        let repo = Repository::with_packages(vec![]);
        let mut mirror = Mirror::new();
        mirror.sync(&repo, 0);
        let (mut generator, _) = DynamicPolicyGenerator::generate_initial(
            &mirror,
            "5.15.0-76",
            0,
            GeneratorConfig::paper_default(),
        );
        // One path updated 50 times, another updated once.
        let mut report = GenerationReport::default();
        for rev in 0..50u32 {
            generator.record_entry("/usr/bin/busy".into(), format!("{rev:064}"), &mut report);
        }
        generator.record_entry("/usr/bin/calm".into(), "f".repeat(64), &mut report);
        let stats = generator.finish_update_window_stats();
        assert_eq!(stats.distinct_paths, 2);
        assert_eq!(stats.duplicates_skipped, 49, "49 touch records skipped");
        // /usr/bin/busy held 50 digests, 49 superseded; calm held 1.
        assert_eq!(stats.digests_removed, 49);
        assert_eq!(generator.finish_update_window(), 0, "window already clean");
    }

    /// Applying each day's [`DynamicPolicyGenerator::take_delta`] to a
    /// replica reproduces the generator's policy exactly — including the
    /// adversarial add-retire-add interleavings around update windows and
    /// kernel reboots.
    #[test]
    fn delta_stream_reproduces_policy_on_a_replica() {
        let (mut stream, mut repo, mut mirror) = synced_mirror();
        let (mut generator, _) = DynamicPolicyGenerator::generate_initial(
            &mirror,
            "5.15.0-76",
            0,
            GeneratorConfig::paper_default(),
        );
        let mut replica = generator.policy().clone();
        let mut ops = 0usize;
        for day in 1..25 {
            repo.apply_release(&stream.next_day());
            let diff = mirror.sync(&repo, day);
            generator.apply_diff(&diff, day);
            // Take mid-window on even days (adds only), post-window on
            // odd ones (adds + retires), to cover both delta shapes.
            if day % 2 == 1 {
                generator.finish_update_window();
            }
            ops += replica.apply_delta(&generator.take_delta());
            assert!(
                replica.diff(generator.policy()).is_empty(),
                "replica diverged on day {day}"
            );
        }
        assert!(ops > 0, "the stream must carry real updates");
        assert_eq!(replica.to_json(), generator.policy().to_json());
    }

    /// Kernel staging and reboot are faithful in the delta stream too:
    /// the reboot's removals and re-adds replay on a replica.
    #[test]
    fn kernel_reboot_rides_the_delta_stream() {
        let repo = Repository::with_packages(vec![kernel_pkg(76)]);
        let mut mirror = Mirror::new();
        mirror.sync(&repo, 0);
        let (mut generator, _) = DynamicPolicyGenerator::generate_initial(
            &mirror,
            "5.15.0-76",
            0,
            GeneratorConfig::paper_default(),
        );
        let mut replica = generator.policy().clone();

        let mut repo2 = repo.clone();
        repo2.apply_release(&ReleaseEvent {
            day: 1,
            packages: vec![kernel_pkg(77)],
        });
        let diff = mirror.sync(&repo2, 1);
        generator.apply_diff(&diff, 1);
        let staged = generator.take_delta();
        assert_eq!(staged.staged_kernels, vec!["5.15.0-77".to_string()]);
        assert!(staged.is_empty(), "staging adds no entries yet");
        replica.apply_delta(&staged);

        assert!(generator.on_kernel_boot("5.15.0-77"));
        let boot = generator.take_delta();
        assert!(!boot.removed_paths.is_empty(), "old modules disallowed");
        assert!(boot.staged_kernels.is_empty(), "the release went active");
        replica.apply_delta(&boot);
        assert!(replica.diff(generator.policy()).is_empty());
        assert!(replica
            .digests_for("/lib/modules/5.15.0-76/drivers/net.ko")
            .is_none());
        assert!(replica
            .digests_for("/lib/modules/5.15.0-77/drivers/net.ko")
            .is_some());
    }

    #[test]
    fn snap_scrubbing_disabled_is_noop() {
        let (_, _, mirror) = synced_mirror();
        let (mut generator, _) = DynamicPolicyGenerator::generate_initial(
            &mirror,
            "5.15.0-76",
            0,
            GeneratorConfig {
                snap_scrubbing: false,
                ..GeneratorConfig::paper_default()
            },
        );
        generator.include_snap(&Snap::core20(1234));
        assert!(generator.policy().digests_for("/usr/bin/python3").is_none());
    }
}
