//! The synthetic release stream, calibrated to the paper's measurements.
//!
//! The paper reports, for 31 days of daily updates (Figs. 3–5, Table I):
//!
//! - **16.5 ± 26.8** updated packages *containing executables* per day,
//!   of which **0.9 ± 2.2** are high-priority;
//! - **1,271 lines (0.16 MB)** appended to the policy per daily update;
//! - an initial policy of **323,734 lines (46 MB)**;
//! - for *weekly* updates: **76.4** low-priority + **2.6** high-priority
//!   unique packages and **5,513** file entries per update — notably *less*
//!   than 7× the daily numbers, because hot packages update repeatedly
//!   within a week and collapse to one entry.
//!
//! [`StreamProfile::paper_calibrated`] encodes a generative model that
//! reproduces all of these jointly:
//!
//! - update counts per day are log-normal (`μ=2.28, σ=1.22`, tail-clamped ⇒ mean ≈16.5,
//!   std ≈27);
//! - files per package are log-normal (`μ=3.064, σ=1.6` ⇒ mean ≈ 77), so
//!   ~4,200 base packages yield ≈ 323k initial policy entries and
//!   16.5 pkg/day ⇒ ≈ 1,271 entries/day;
//! - 5.5% of the population is high-priority (0.9/16.5);
//! - a *hot pool* of frequently-updated packages receives most picks,
//!   which is what makes weekly unique-package counts sub-linear.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

use crate::package::{Package, PackageFile, Pocket, Priority, Version};
use crate::repo::{ReleaseEvent, Repository};

/// Calibration knobs for the synthetic release stream.
#[derive(Debug, Clone)]
pub struct StreamProfile {
    /// Packages in the archive at day 0.
    pub base_population: usize,
    /// Log-normal (μ, σ) of exec-containing package updates per day.
    pub daily_updates_lognormal: (f64, f64),
    /// Log-normal (μ, σ) of executable files per package.
    pub files_per_package_lognormal: (f64, f64),
    /// Fraction of the population with high priority.
    pub high_priority_fraction: f64,
    /// Size of the frequently-updated hot pool.
    pub hot_pool: usize,
    /// Probability an update pick comes from the hot pool.
    pub hot_fraction: f64,
    /// Expected brand-new packages per day.
    pub new_package_rate: f64,
    /// Days between kernel (`linux-image-generic`) updates; 0 disables.
    pub kernel_update_interval: u32,
    /// Mean nominal file size in bytes (cost-model download/hash volume).
    pub mean_nominal_file_size: u64,
    /// RNG seed — every run with the same profile is identical.
    pub seed: u64,
}

impl StreamProfile {
    /// The calibration that reproduces the paper's Figs. 3–5 and Table I.
    pub fn paper_calibrated() -> Self {
        StreamProfile {
            base_population: 4200,
            daily_updates_lognormal: (2.28, 1.22),
            files_per_package_lognormal: (3.064, 1.6),
            high_priority_fraction: 0.055,
            hot_pool: 60,
            hot_fraction: 0.75,
            new_package_rate: 0.25,
            kernel_update_interval: 12,
            mean_nominal_file_size: 120_000,
            seed: 0x001b_a5ed_5eed,
        }
    }

    /// A scaled-down profile for fast unit tests (≈1/20 the population,
    /// same shape parameters).
    pub fn small(seed: u64) -> Self {
        StreamProfile {
            base_population: 200,
            hot_pool: 12,
            new_package_rate: 0.1,
            seed,
            ..Self::paper_calibrated()
        }
    }
}

/// Internal mutable state of one package line.
#[derive(Debug, Clone)]
struct PackageState {
    name: String,
    version: Version,
    priority: Priority,
    pocket: Pocket,
    /// (install path, nominal size) — stable across updates.
    files: Vec<(String, u64)>,
    is_kernel: bool,
}

impl PackageState {
    fn to_package(&self) -> Package {
        let files = self
            .files
            .iter()
            .map(|(path, nominal)| PackageFile {
                install_path: path.clone(),
                executable: true,
                nominal_size: *nominal,
                content_seed: content_seed(&self.name, &self.version, path),
            })
            .collect();
        Package {
            name: self.name.clone(),
            version: self.version.clone(),
            priority: self.priority,
            pocket: self.pocket,
            files,
            is_kernel: self.is_kernel,
        }
    }
}

/// Derives a file's content seed from its identity: content changes
/// exactly when the package version changes.
fn content_seed(name: &str, version: &Version, path: &str) -> u64 {
    // FNV-1a 64-bit.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name
        .bytes()
        .chain(version.to_string().bytes())
        .chain(path.bytes())
    {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The day-by-day release generator.
///
/// # Examples
///
/// ```
/// use cia_distro::{ReleaseStream, StreamProfile};
///
/// let (mut stream, repo) = ReleaseStream::new(StreamProfile::small(7));
/// assert!(repo.len() >= 200);
/// let day1 = stream.next_day();
/// assert_eq!(day1.day, 1);
/// ```
#[derive(Debug)]
pub struct ReleaseStream {
    profile: StreamProfile,
    population: Vec<PackageState>,
    /// Indices of the frequently-updated packages, chosen by stratified
    /// sampling over file counts so the hot pool's mean files-per-package
    /// matches the population's (keeps Fig. 5 calibrated).
    hot_indices: Vec<usize>,
    rng: ChaCha12Rng,
    day: u32,
}

impl ReleaseStream {
    /// Builds the stream and the day-0 archive it starts from.
    pub fn new(profile: StreamProfile) -> (Self, Repository) {
        let mut rng = ChaCha12Rng::seed_from_u64(profile.seed);
        let mut population = Vec::with_capacity(profile.base_population);
        for i in 0..profile.base_population {
            let priority = if rng.random::<f64>() < profile.high_priority_fraction {
                match rng.random_range(0..4) {
                    0 => Priority::Essential,
                    1 => Priority::Required,
                    2 => Priority::Important,
                    _ => Priority::Standard,
                }
            } else if rng.random::<f64>() < 0.9 {
                Priority::Optional
            } else {
                Priority::Extra
            };
            let state = Self::new_package_state(
                format!("pkg-{i:04}"),
                priority,
                Pocket::Main,
                &profile,
                &mut rng,
            );
            population.push(state);
        }
        // One kernel package line.
        if profile.kernel_update_interval > 0 {
            population.push(PackageState {
                name: "linux-image-generic".to_string(),
                version: Version {
                    upstream: "5.15.0".to_string(),
                    revision: 76,
                },
                priority: Priority::Optional,
                pocket: Pocket::Main,
                files: (0..240)
                    .map(|i| {
                        (
                            if i == 0 {
                                "/boot/vmlinuz".to_string()
                            } else {
                                format!("/lib/modules/kernel/drivers/mod{i:03}.ko")
                            },
                            profile.mean_nominal_file_size,
                        )
                    })
                    .collect(),
                is_kernel: true,
            });
        }
        // Stratified hot pool: sort by file count and take one package per
        // quantile stratum, so hot updates are representative of the
        // population's (heavy-tailed) files-per-package distribution.
        let pool = profile
            .hot_pool
            .min(population.len().saturating_sub(1))
            .max(1);
        let mut by_files: Vec<usize> = (0..population.len())
            .filter(|&i| !population[i].is_kernel)
            .collect();
        by_files.sort_by_key(|&i| population[i].files.len());
        let mut hot_indices: Vec<usize> = (0..pool)
            .map(|k| by_files[(k * by_files.len() + by_files.len() / 2) / pool])
            .collect();
        hot_indices.dedup();
        // Pin the hot pool's priority mix to the population's high-priority
        // fraction, so Table I's high-priority update rate is calibrated
        // rather than left to per-seed luck.
        let high_stride = (1.0 / profile.high_priority_fraction.max(1e-6)).round() as usize;
        for (slot, &idx) in hot_indices.iter().enumerate() {
            population[idx].priority = if high_stride > 0 && slot % high_stride == high_stride / 2 {
                Priority::Standard
            } else {
                Priority::Optional
            };
        }

        let repo = Repository::with_packages(population.iter().map(|s| s.to_package()).collect());
        (
            ReleaseStream {
                profile,
                population,
                hot_indices,
                rng,
                day: 0,
            },
            repo,
        )
    }

    fn new_package_state(
        name: String,
        priority: Priority,
        pocket: Pocket,
        profile: &StreamProfile,
        rng: &mut ChaCha12Rng,
    ) -> PackageState {
        let (mu, sigma) = profile.files_per_package_lognormal;
        let n_files = (lognormal(rng, mu, sigma).round() as usize).clamp(1, 3000);
        let dirs = [
            "/usr/bin",
            "/usr/sbin",
            "/usr/lib",
            "/usr/libexec",
            "/sbin",
            "/bin",
        ];
        let files = (0..n_files)
            .map(|i| {
                let dir = dirs[rng.random_range(0..dirs.len())];
                let nominal = ((profile.mean_nominal_file_size as f64) * lognormal(rng, -0.5, 1.0))
                    .max(512.0) as u64;
                (format!("{dir}/{name}-{i}"), nominal)
            })
            .collect();
        PackageState {
            name,
            version: Version::initial("1.0"),
            priority,
            pocket,
            files,
            is_kernel: false,
        }
    }

    /// Advances the simulation by one day and returns what the archive
    /// published.
    pub fn next_day(&mut self) -> ReleaseEvent {
        self.day += 1;
        let (mu, sigma) = self.profile.daily_updates_lognormal;
        // Some days genuinely publish nothing with executables.
        // Clamp the heavy tail to the largest plausible publication day
        // (the paper's Fig. 4 tops out near ~120 packages).
        let n_updates = if self.rng.random::<f64>() < 0.06 {
            0
        } else {
            (lognormal(&mut self.rng, mu, sigma).round() as usize).min(120)
        };

        // `n_updates` is the target number of *unique* updated packages
        // for the day (what Fig. 4 counts); collisions within the hot
        // pool are re-drawn, capped so a huge day cannot spin forever.
        let mut picked: Vec<usize> = Vec::new();
        let max_attempts = n_updates.saturating_mul(20).max(64);
        let mut attempts = 0;
        while picked.len() < n_updates.min(self.population.len() - 1) && attempts < max_attempts {
            attempts += 1;
            let idx = if self.rng.random::<f64>() < self.profile.hot_fraction {
                self.hot_indices[self.rng.random_range(0..self.hot_indices.len())]
            } else {
                self.rng.random_range(0..self.population.len())
            };
            if !picked.contains(&idx) && !self.population[idx].is_kernel {
                picked.push(idx);
            }
        }

        let mut packages = Vec::new();
        for idx in picked {
            let state = &mut self.population[idx];
            state.version = state.version.bump();
            // Security vs plain updates pocket, roughly 1:2.
            state.pocket = if self.rng.random::<f64>() < 0.33 {
                Pocket::Security
            } else {
                Pocket::Updates
            };
            // Occasionally a package gains a new executable.
            if self.rng.random::<f64>() < 0.08 {
                let nominal = self.profile.mean_nominal_file_size;
                let n = state.files.len();
                let name = state.name.clone();
                state
                    .files
                    .push((format!("/usr/lib/{name}-extra{n}"), nominal));
            }
            packages.push(state.to_package());
        }

        // Brand-new packages.
        let mut new_count = 0usize;
        while self.rng.random::<f64>() < self.profile.new_package_rate && new_count < 3 {
            new_count += 1;
            let name = format!("pkg-new-{}-{}", self.day, new_count);
            let mut state = Self::new_package_state(
                name,
                Priority::Optional,
                Pocket::Updates,
                &self.profile,
                &mut self.rng,
            );
            state.pocket = Pocket::Updates;
            packages.push(state.to_package());
            self.population.push(state);
        }

        // Periodic kernel update.
        if self.profile.kernel_update_interval > 0
            && self.day.is_multiple_of(self.profile.kernel_update_interval)
        {
            if let Some(kernel) = self.population.iter_mut().find(|p| p.is_kernel) {
                kernel.version = kernel.version.bump();
                kernel.pocket = Pocket::Updates;
                packages.push(kernel.to_package());
            }
        }

        ReleaseEvent {
            day: self.day,
            packages,
        }
    }

    /// The current simulation day.
    pub fn day(&self) -> u32 {
        self.day
    }
}

/// Samples a log-normal variate via Box–Muller.
fn lognormal<R: Rng>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.random();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    (mu + sigma * z).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn deterministic_for_seed() {
        let (mut s1, r1) = ReleaseStream::new(StreamProfile::small(11));
        let (mut s2, r2) = ReleaseStream::new(StreamProfile::small(11));
        assert_eq!(r1.len(), r2.len());
        for _ in 0..5 {
            let e1 = s1.next_day();
            let e2 = s2.next_day();
            assert_eq!(e1, e2);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let (mut s1, _) = ReleaseStream::new(StreamProfile::small(1));
        let (mut s2, _) = ReleaseStream::new(StreamProfile::small(2));
        let days1: Vec<usize> = (0..10).map(|_| s1.next_day().packages.len()).collect();
        let days2: Vec<usize> = (0..10).map(|_| s2.next_day().packages.len()).collect();
        assert_ne!(days1, days2);
    }

    #[test]
    fn versions_monotonically_increase() {
        let (mut stream, repo) = ReleaseStream::new(StreamProfile::small(3));
        let mut last: std::collections::BTreeMap<String, Version> = repo
            .packages()
            .map(|p| (p.name.clone(), p.version.clone()))
            .collect();
        for _ in 0..30 {
            for p in stream.next_day().packages {
                if let Some(prev) = last.get(&p.name) {
                    assert!(p.version > *prev, "{} went backwards", p.name);
                }
                last.insert(p.name, p.version);
            }
        }
    }

    #[test]
    fn updates_change_content_seeds() {
        let (mut stream, repo) = ReleaseStream::new(StreamProfile::small(4));
        for _ in 0..30 {
            for p in stream.next_day().packages {
                if let Some(old) = repo.get(&p.name) {
                    let old_seed = old.files[0].content_seed;
                    let new_seed = p.files[0].content_seed;
                    assert_ne!(old_seed, new_seed, "{} content did not change", p.name);
                }
            }
        }
    }

    #[test]
    fn kernel_updates_on_schedule() {
        let mut profile = StreamProfile::small(5);
        profile.kernel_update_interval = 4;
        let (mut stream, _) = ReleaseStream::new(profile);
        let mut kernel_days = Vec::new();
        for d in 1..=12u32 {
            let ev = stream.next_day();
            if ev.packages.iter().any(|p| p.is_kernel) {
                kernel_days.push(d);
            }
        }
        assert_eq!(kernel_days, vec![4, 8, 12]);
    }

    #[test]
    fn hot_pool_causes_weekly_dedup() {
        // The key emergent property behind Table I: unique packages over a
        // week are well below 7x the daily count.
        let (mut stream, _) = ReleaseStream::new(StreamProfile::paper_calibrated());
        let mut total = 0usize;
        let mut unique: BTreeSet<String> = BTreeSet::new();
        for _ in 0..7 {
            for p in stream.next_day().packages {
                total += 1;
                unique.insert(p.name);
            }
        }
        if total >= 20 {
            assert!(
                unique.len() < total,
                "expected repeated packages within a week (total {total}, unique {})",
                unique.len()
            );
        }
    }

    #[test]
    fn calibration_statistics_match_paper_shape() {
        // Long-run check of the generative model against the paper's
        // Table I means (loose tolerances: the paper's own std devs are
        // larger than the means).
        let (mut stream, repo) = ReleaseStream::new(StreamProfile::paper_calibrated());

        // Initial policy size ~323k entries.
        let initial_entries: usize = repo
            .packages_in(&Pocket::BASE_OS)
            .map(|p| p.executable_files().count())
            .sum();
        assert!(
            (200_000..500_000).contains(&initial_entries),
            "initial policy entries {initial_entries} out of band"
        );

        let days = 120;
        let mut pkg_counts = Vec::new();
        let mut high_counts = Vec::new();
        let mut line_counts = Vec::new();
        for _ in 0..days {
            let ev = stream.next_day();
            pkg_counts.push(ev.packages_with_executables() as f64);
            high_counts.push(ev.packages.iter().filter(|p| p.priority.is_high()).count() as f64);
            line_counts.push(
                ev.packages
                    .iter()
                    .map(|p| p.executable_files().count())
                    .sum::<usize>() as f64,
            );
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let m_pkgs = mean(&pkg_counts);
        let m_high = mean(&high_counts);
        let m_lines = mean(&line_counts);
        assert!((8.0..30.0).contains(&m_pkgs), "mean pkgs/day {m_pkgs}");
        assert!((0.2..2.5).contains(&m_high), "mean high-pri/day {m_high}");
        assert!(
            (500.0..3000.0).contains(&m_lines),
            "mean lines/day {m_lines}"
        );
    }
}
