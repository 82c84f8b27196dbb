//! Fixture crate for `tests/rules.rs`: `cargo clippy --all-targets`
//! lints it under the workspace `clippy.toml`, with the panic-family
//! lints denied at its root as every hot-path crate denies them. The
//! tests assert each module's findings by line — keep lines stable.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes_without_reason
)]

pub mod allow_attr;
pub mod bad_allow;
pub mod bad_determinism;
pub mod bad_lock;
pub mod bad_panic;
pub mod good_determinism;
pub mod good_panic;
