//! Placeholder for the vendored subset of the
//! [`bytes`](https://crates.io/crates/bytes) crate, now empty.
//!
//! The build environment has no access to crates.io, so this workspace
//! once vendored a slice of the `bytes` API for the parameter server's
//! wire codec. That codec is gone and nothing calls this crate.
//! `p3-pserver` still declares the dependency because the benchmark's own
//! lockfile (`ledger/Cargo.lock`) records that edge; the package and the
//! edge go together with the next change to that lock.
