//! `cia-storage`: durable, crash-recoverable state for the verifier.
//!
//! A bitcask-style append-only record log ([`LogStore`]) over
//! [`cia_vfs::Vfs`]: every durable fact is one CRC-framed record
//! (`[crc | ts | ksz | vsz | key | val]`), an in-memory keydir maps
//! each key to its latest frame, and compaction rewrites the live view
//! into a fresh segment. Because the "disk" is the deterministic
//! virtual filesystem, tests can clone it mid-write to model crashes
//! at arbitrary frame boundaries and prove recovery equivalence.

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

pub mod log;
pub mod record;

pub use log::{Header, KeyDir, KeyValue, LogStore, RecoveryReport, StorageError};
pub use record::{decode, encode_into, Frame, FrameError, HEADER_SIZE, TOMBSTONE};
