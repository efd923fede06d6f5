//! Switchable synchronization primitives — the crate's single gateway to
//! `std::sync`/`std::thread` concurrency.
//!
//! Production builds re-export the std primitives unchanged (this module
//! compiles to pure renames; the default build stays std-only). Under the
//! `chk` cargo feature the same names resolve to the model-checked shims
//! from the in-tree `chk` crate, so the synchronization skeleton of
//! [`par`](crate::par) can be exhaustively schedule-explored by
//! `tests/chk_models.rs` without a separate copy of the protocol code. The
//! workspace `srclint` enforces the funnel: raw
//! `std::sync::Mutex`/`Condvar`/`std::thread::spawn` outside per-crate
//! `sync.rs` modules (and tests) fail the lint.
//!
//! [`Once`] is always the std type: it guards one-time *initialization*
//! (fault-point registries), not a schedule-sensitive protocol, and the
//! model checker does not model it.

#[cfg(feature = "chk")]
pub use chk::sync::{AtomicUsize, Mutex, MutexGuard, OnceLock};
#[cfg(feature = "chk")]
pub use chk::thread::{spawn_scoped, ScopedJoinHandle};

#[cfg(not(feature = "chk"))]
pub use std::sync::atomic::AtomicUsize;
#[cfg(not(feature = "chk"))]
pub use std::sync::{Mutex, MutexGuard, OnceLock};
#[cfg(not(feature = "chk"))]
pub use std::thread::ScopedJoinHandle;

pub use std::sync::atomic::Ordering;
pub use std::sync::Once;

/// Spawns a scoped thread; the `chk` build swaps in the model-checked
/// wrapper. Model rule (vacuous for std builds): join every handle before
/// its scope closes.
#[cfg(not(feature = "chk"))]
pub fn spawn_scoped<'scope, 'env, F, T>(
    scope: &'scope std::thread::Scope<'scope, 'env>,
    f: F,
) -> ScopedJoinHandle<'scope, T>
where
    F: FnOnce() -> T + Send + 'scope,
    T: Send + 'scope,
{
    scope.spawn(f)
}
