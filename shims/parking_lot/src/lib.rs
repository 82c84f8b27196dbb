//! Empty placeholder: no crate depends on `parking_lot`. It exists only
//! because `benchmark/Cargo.toml`'s patch table still names this path.
