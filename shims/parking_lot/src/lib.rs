//! Offline shim for `parking_lot`: non-poisoning [`Mutex`]/[`RwLock`]
//! wrappers over `std::sync` with parking_lot's infallible lock API.
//!
//! With the `lock-sanitizer` feature enabled, every blocking
//! acquisition is additionally recorded into a process-global
//! **lock-order graph**: an edge `A → B` means some thread acquired `B`
//! while holding `A`. A cycle in that graph is a potential deadlock —
//! two threads can interleave the cyclic acquisitions and block each
//! other forever. See the [`sanitizer`] module for inspection
//! (`cycles()`, `edges()`, `reset()`). Locks are registered under
//! human-readable names via [`Mutex::named`]/[`RwLock::named`], which
//! should mirror the static `lock-order` manifest consumed by
//! `cia-lint` — the static pass proves the order where heuristics can
//! see it, the sanitizer proves it across real interleavings.
//!
//! Recording happens *before* blocking, so an actual deadlock still
//! leaves its edges in the graph. `try_lock`/`try_*` variants record no
//! edges (they cannot deadlock) but do count as held while live, so
//! later blocking acquisitions under them are ordered correctly.
//!
//! The same feature also feeds a **vector-clock happens-before race
//! detector** (the [`racecheck`] module): every acquisition joins the
//! lock's release clock into the acquiring thread and every release
//! publishes the releaser's clock, so reads/writes of fields wrapped in
//! [`RaceCell`] can be checked for ordering through *instrumented*
//! synchronization only. `racecheck::races()` empty after a run means
//! every audited access pair was ordered by a lock, channel, or
//! fork/join edge the shims actually recorded — the dynamic complement
//! to `cia-lint`'s static lock-order manifest.

#![forbid(unsafe_code)]

use std::ops::{Deref, DerefMut};
use std::sync;

#[cfg(feature = "lock-sanitizer")]
pub mod racecheck;
#[cfg(feature = "lock-sanitizer")]
pub mod sanitizer;

#[cfg(feature = "lock-sanitizer")]
use sanitizer::{HeldToken, LazyLockId};

/// A mutual-exclusion lock that never poisons.
#[derive(Debug, Default)]
pub struct Mutex<T> {
    inner: sync::Mutex<T>,
    #[cfg(feature = "lock-sanitizer")]
    id: LazyLockId,
}

/// Guard for [`Mutex`].
///
/// `_held` is declared first so it drops before the inner guard: the
/// sanitizer records the release (and publishes the happens-before
/// clock) while the real lock is still held.
#[derive(Debug)]
pub struct MutexGuard<'a, T> {
    #[cfg(feature = "lock-sanitizer")]
    _held: HeldToken,
    inner: sync::MutexGuard<'a, T>,
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T> Mutex<T> {
    /// Wraps a value.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: sync::Mutex::new(value),
            #[cfg(feature = "lock-sanitizer")]
            id: LazyLockId::new(),
        }
    }

    /// Registers this lock under a human-readable name in the sanitizer
    /// graph (no-op without the `lock-sanitizer` feature). Builder
    /// style: `Mutex::new(v).named("totals")`.
    #[must_use]
    pub fn named(self, name: &'static str) -> Self {
        #[cfg(feature = "lock-sanitizer")]
        sanitizer::register_name(self.id.get(), name);
        #[cfg(not(feature = "lock-sanitizer"))]
        let _ = name;
        self
    }

    /// Acquires the lock (recovers from poisoning).
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(feature = "lock-sanitizer")]
        let _held = sanitizer::enter(self.id.get());
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        // Happens-before join only after the lock is truly held — joining
        // before blocking would miss the release that let us in.
        #[cfg(feature = "lock-sanitizer")]
        racecheck::lock_acquired(self.id.get());
        MutexGuard {
            #[cfg(feature = "lock-sanitizer")]
            _held,
            inner,
        }
    }

    /// Tries to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let inner = match self.inner.try_lock() {
            Ok(guard) => guard,
            Err(sync::TryLockError::Poisoned(e)) => e.into_inner(),
            Err(sync::TryLockError::WouldBlock) => return None,
        };
        Some(MutexGuard {
            #[cfg(feature = "lock-sanitizer")]
            _held: sanitizer::enter_quiet(self.id.get()),
            inner,
        })
    }

    /// Consumes the lock, returning the value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }

    /// Mutable access without locking.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

/// A readers-writer lock that never poisons.
#[derive(Debug, Default)]
pub struct RwLock<T> {
    inner: sync::RwLock<T>,
    #[cfg(feature = "lock-sanitizer")]
    id: LazyLockId,
}

/// Read guard for [`RwLock`]. (`_held` first — see [`MutexGuard`].)
#[derive(Debug)]
pub struct RwLockReadGuard<'a, T> {
    #[cfg(feature = "lock-sanitizer")]
    _held: HeldToken,
    inner: sync::RwLockReadGuard<'a, T>,
}

impl<T> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

/// Write guard for [`RwLock`]. (`_held` first — see [`MutexGuard`].)
#[derive(Debug)]
pub struct RwLockWriteGuard<'a, T> {
    #[cfg(feature = "lock-sanitizer")]
    _held: HeldToken,
    inner: sync::RwLockWriteGuard<'a, T>,
}

impl<T> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T> RwLock<T> {
    /// Wraps a value.
    pub const fn new(value: T) -> Self {
        RwLock {
            inner: sync::RwLock::new(value),
            #[cfg(feature = "lock-sanitizer")]
            id: LazyLockId::new(),
        }
    }

    /// Registers this lock under a human-readable name in the sanitizer
    /// graph (no-op without the `lock-sanitizer` feature). Builder
    /// style: `RwLock::new(v).named("map")`.
    #[must_use]
    pub fn named(self, name: &'static str) -> Self {
        #[cfg(feature = "lock-sanitizer")]
        sanitizer::register_name(self.id.get(), name);
        #[cfg(not(feature = "lock-sanitizer"))]
        let _ = name;
        self
    }

    /// Acquires a shared read lock.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        #[cfg(feature = "lock-sanitizer")]
        let _held = sanitizer::enter(self.id.get());
        let inner = self.inner.read().unwrap_or_else(|e| e.into_inner());
        #[cfg(feature = "lock-sanitizer")]
        racecheck::lock_acquired(self.id.get());
        RwLockReadGuard {
            #[cfg(feature = "lock-sanitizer")]
            _held,
            inner,
        }
    }

    /// Acquires an exclusive write lock.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        #[cfg(feature = "lock-sanitizer")]
        let _held = sanitizer::enter(self.id.get());
        let inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
        #[cfg(feature = "lock-sanitizer")]
        racecheck::lock_acquired(self.id.get());
        RwLockWriteGuard {
            #[cfg(feature = "lock-sanitizer")]
            _held,
            inner,
        }
    }

    /// Tries to acquire a shared read lock without blocking.
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        let inner = match self.inner.try_read() {
            Ok(guard) => guard,
            Err(sync::TryLockError::Poisoned(e)) => e.into_inner(),
            Err(sync::TryLockError::WouldBlock) => return None,
        };
        Some(RwLockReadGuard {
            #[cfg(feature = "lock-sanitizer")]
            _held: sanitizer::enter_quiet(self.id.get()),
            inner,
        })
    }

    /// Consumes the lock, returning the value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

/// A plain value whose reads and writes are audited by the
/// happens-before race detector.
///
/// Without the `lock-sanitizer` feature this is a zero-cost newtype.
/// With it, [`get`](RaceCell::get) reports a read and
/// [`get_mut`](RaceCell::get_mut)/[`set`](RaceCell::set) report a write
/// to [`racecheck`], which convicts any pair of accesses not ordered by
/// an *instrumented* synchronization chain (shim locks, shim channels,
/// instrumented fork/join). Rust's borrow rules already forbid true
/// data races on the value itself — the cell audits that the recorded
/// happens-before graph is sufficient, i.e. that the code's
/// synchronization story matches what the shims can see.
#[derive(Debug, Default)]
pub struct RaceCell<T> {
    value: T,
    #[cfg(feature = "lock-sanitizer")]
    id: LazyLockId,
}

impl<T> RaceCell<T> {
    /// Wraps a value.
    pub const fn new(value: T) -> Self {
        RaceCell {
            value,
            #[cfg(feature = "lock-sanitizer")]
            id: LazyLockId::new(),
        }
    }

    /// Registers this cell under a human-readable name in race reports
    /// (no-op without the `lock-sanitizer` feature). Builder style:
    /// `RaceCell::new(v).named("retired")`.
    #[must_use]
    pub fn named(self, name: &'static str) -> Self {
        #[cfg(feature = "lock-sanitizer")]
        racecheck::register_cell_name(self.id.get(), name);
        #[cfg(not(feature = "lock-sanitizer"))]
        let _ = name;
        self
    }

    /// Reads the value (recorded as an audited read).
    pub fn get(&self) -> &T {
        #[cfg(feature = "lock-sanitizer")]
        racecheck::cell_read(self.id.get());
        &self.value
    }

    /// Mutable access (recorded as an audited write).
    pub fn get_mut(&mut self) -> &mut T {
        #[cfg(feature = "lock-sanitizer")]
        racecheck::cell_write(self.id.get());
        &mut self.value
    }

    /// Replaces the value (recorded as an audited write).
    pub fn set(&mut self, value: T) {
        #[cfg(feature = "lock-sanitizer")]
        racecheck::cell_write(self.id.get());
        self.value = value;
    }

    /// Consumes the cell, returning the value (not recorded — by-value
    /// moves are ownership transfers, which the borrow checker orders).
    pub fn into_inner(self) -> T {
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_basics() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_basics() {
        let l = RwLock::new(vec![1]);
        l.write().push(2);
        assert_eq!(l.read().len(), 2);
    }

    #[test]
    fn try_lock_contended() {
        let m = Mutex::new(0);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }
}
