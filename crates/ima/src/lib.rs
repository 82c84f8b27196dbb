//! A simulator of Linux's Integrity Measurement Architecture (IMA).
//!
//! IMA hooks file accesses (execution, executable mmap, kernel-module
//! load), hashes the file content, appends an entry to a measurement list,
//! and extends TPM PCR 10 with the entry's template hash. Keylime's
//! verifier later replays the list against a quoted PCR 10 value and
//! checks each file digest against its runtime policy.
//!
//! Three of the paper's five evasion problems are *design properties of
//! IMA itself*, and this crate reproduces each mechanically:
//!
//! - **P3 — unmonitored filesystems**: policy rules exclude whole
//!   filesystems by superblock magic (`dont_measure fsmagic=0x01021994`
//!   for tmpfs, etc.); executions there are invisible. See [`ImaPolicy`].
//! - **P4 — no re-evaluation**: measurements are cached per
//!   `(filesystem, inode)` and invalidated only by content writes
//!   (`i_version`), never by renames. A file measured once under
//!   `/var/tmp/x` and moved to `/usr/bin/x` is *not* re-measured. See
//!   [`Ima::on_exec`] and the [`ImaConfig::reevaluate_on_path_change`]
//!   mitigation toggle.
//! - **P5 — scripts via interpreters**: only `execve` (`BPRM_CHECK`)
//!   measures the executed file. `python3 script.py` measures the
//!   *interpreter*; the script is a plain read. The
//!   [`ImaConfig::script_exec_control`] toggle models the kernel's
//!   `O_MAYEXEC`/script-execution-control patch set, where opted-in
//!   interpreters open scripts with an exec intent that IMA can measure.
//!
//! # Examples
//!
//! ```
//! use cia_crypto::HashAlgorithm;
//! use cia_ima::{Ima, ImaPolicy};
//! use cia_tpm::{Manufacturer, Tpm};
//! use cia_vfs::{Mode, Vfs, VfsPath};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let manufacturer = Manufacturer::generate(&mut rng);
//! let mut tpm = Tpm::manufacture(&manufacturer, &mut rng);
//! let mut vfs = Vfs::with_standard_layout();
//! let mut ima = Ima::new(ImaPolicy::keylime_default());
//! ima.record_boot_aggregate(&mut tpm)?;
//!
//! let ls = VfsPath::new("/usr/bin/ls")?;
//! vfs.create_file(&ls, b"ls binary".to_vec(), Mode::EXEC)?;
//! ima.on_exec(&vfs, &ls, &ls, &mut tpm)?;
//!
//! // The log replays exactly to the TPM's PCR 10.
//! let replayed = ima.log().replay(HashAlgorithm::Sha256);
//! assert_eq!(replayed, tpm.pcr_read(HashAlgorithm::Sha256, 10)?);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// A hot-path crate: its library code surfaces typed errors, never a
// panic (DESIGN.md §10). An escape is a reasoned `#[expect]`.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes_without_reason
)]

pub mod appraise;
pub mod engine;
pub mod error;
pub mod log;
pub mod policy;
pub mod wire;

pub use appraise::{
    sign_content, sign_file, AppraisalKeyring, AppraisalResult, ImaSignature, IMA_XATTR,
};
pub use engine::{Ima, ImaConfig};
pub use error::ImaError;
pub use log::{ImaLogEntry, MeasurementLog, TemplateHashMemo, BOOT_AGGREGATE_NAME, IMA_PCR};
pub use policy::{ImaFunc, ImaPolicy, PolicyAction, PolicyRule};
