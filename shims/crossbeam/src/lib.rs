//! Empty placeholder: no crate depends on `crossbeam`. It exists only because
//! `benchmark/Cargo.toml`'s patch table still names this path.
