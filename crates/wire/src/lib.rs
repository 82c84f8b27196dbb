//! Zero-dependency binary wire protocol for cross-process shard RPC.
//!
//! The federation layer keeps a million-agent fleet behind N verifier
//! shards; this crate is the wire boundary that lets those shards live
//! in other processes without giving up the repo's replay guarantees.
//! Everything here is deliberately small and fully deterministic:
//!
//! - [`Writer`] / [`Reader`]: a binary codec with LEB128 varints for
//!   integers and length-prefixed byte slices. Decoding is zero-copy —
//!   [`Reader::bytes`] and [`Reader::str`] borrow straight out of the
//!   frame buffer, so digests and log excerpts are never re-allocated
//!   just to be looked at.
//! - [`Wire`]: the encode/decode trait message types implement, and its
//!   `#[derive(Wire)]` (from `cia-wire-derive`), which writes the impl
//!   of a plain struct or enum from its declaration. Decode never
//!   panics: every malformed input surfaces as a [`WireError`].
//! - [`frame`] / [`unframe`] and [`write_frame`]: length-prefixed
//!   CRC32-protected framing (`[magic][len][crc][payload]`) over byte
//!   slices or any `Write` sink, so torn or corrupted frames are
//!   detected at the boundary instead of mis-decoding.
//! - [`ShardTransport`]: a splittable duplex connection carrying frames
//!   between a federation coordinator and one shard, with two
//!   implementations — [`DuplexShardTransport`] (in-memory channel,
//!   frames still fully encoded and CRC-checked) and
//!   [`TcpShardTransport`] (`std::net` TCP loopback with Nagle
//!   disabled and a buffered writer flushed per frame). A receiving
//!   half returns decoded [`Wire`] messages, never payload bytes: what
//!   a peer sends is checked and decoded here, at the boundary.
//!
//! The protocol spoken over these frames lives with the types it
//! serializes (`cia-keylime`'s `remote` module); this crate knows only
//! bytes, frames and connections.

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

mod codec;
mod crc;
mod error;
mod frame;
mod transport;

pub use cia_wire_derive::Wire;
pub use codec::{Reader, Wire, Writer};
pub use crc::crc32;
pub use error::WireError;
pub use frame::{frame, unframe, write_frame, FRAME_HEADER_LEN, MAGIC, MAX_FRAME};
pub use transport::{
    DuplexReceiver, DuplexSender, DuplexShardTransport, FrameReceiver, FrameSender, ShardTransport,
    TcpReceiver, TcpSender, TcpShardTransport,
};
