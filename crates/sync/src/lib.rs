//! Instrumented synchronization primitives for the CRAC workspace.
//!
//! Every concurrent layer of this codebase — the pre-copy checkpointer
//! racing a mutator under epoch locks, the lazy-restore fault queue, the
//! thread-per-connection TCP server over one shared store — is built on
//! plain mutexes whose correctness rests on *acquisition order*
//! conventions nothing enforced.  This crate is the enforcement layer:
//! [`Mutex`] / [`RwLock`] / [`Condvar`] wrappers over `std::sync` where
//!
//! * every lock carries a **static name** and every acquisition a
//!   `#[track_caller]` **site**, so diagnostics say *which* lock and
//!   *where*;
//! * instrumented builds (debug — hence the whole test suite — or the
//!   `lock-graph` cargo feature) record every `held → acquiring` pair
//!   into a process-global [lock-order graph](LockOrderGraph) with cycle
//!   detection: the first ABBA inversion anywhere fails loudly with the
//!   acquisition sites of every lock on the cycle (see [`lock_graph`]),
//!   in the TSan/lockdep potential-deadlock tradition;
//! * the same builds feed `crac_lock_wait_us` / `crac_lock_hold_us`
//!   histograms and contention counters ([`stats`]) that `crac-obs`
//!   appends to every Prometheus scrape;
//! * release builds without the feature compile the wrappers down to the
//!   underlying `std::sync` call — a newtype and nothing else (the `perf`
//!   benchmark's `sync.lock_ns` probe measures it);
//! * no lock is ever poisoned for its later users: a guard dropped by a
//!   panicking thread leaves the data as it was, and every acquisition
//!   (blocking, `try_*`, `into_inner`, `get_mut`, condvar waits) recovers
//!   it instead of returning a `PoisonError`.
//!
//! The `crac-lint` analyzer closes the loop: raw `std::sync` locks are
//! refused outside this crate, so every lock in the workspace is visible
//! to the detector.

#![warn(missing_docs)]
// This crate *wraps* the raw lock types everyone else is forbidden to
// touch; the clippy `disallowed-types` gate is for the rest of the
// workspace.
#![allow(clippy::disallowed_types)]

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{PoisonError, TryLockError, TryLockResult};

#[cfg(any(debug_assertions, feature = "lock-graph"))]
use std::panic::Location;
#[cfg(any(debug_assertions, feature = "lock-graph"))]
use std::time::Instant;

pub mod graph;
pub mod lock_graph;
pub mod stats;

pub use graph::LockOrderGraph;
pub use lock_graph::{CycleEdge, CycleReport};
pub use stats::{instrumented, LockStats};

// ---------------------------------------------------------------------------
// Lock identity
// ---------------------------------------------------------------------------

/// Static identity of one lock instance: its name, plus (instrumented
/// builds) a lazily assigned process-unique id for the order graph.
struct LockMeta {
    name: &'static str,
    #[cfg(any(debug_assertions, feature = "lock-graph"))]
    id: std::sync::atomic::AtomicU64,
}

impl LockMeta {
    const fn new(name: &'static str) -> Self {
        LockMeta {
            name,
            #[cfg(any(debug_assertions, feature = "lock-graph"))]
            id: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// The lock's graph id, assigned on first acquisition (creation may
    /// happen in `const` contexts where no counter can run).
    #[cfg(any(debug_assertions, feature = "lock-graph"))]
    fn id(&self) -> u64 {
        use std::sync::atomic::Ordering;
        let cur = self.id.load(Ordering::Relaxed);
        if cur != 0 {
            return cur;
        }
        let fresh = lock_graph::next_lock_id();
        match self
            .id
            .compare_exchange(0, fresh, Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => fresh,
            Err(existing) => existing,
        }
    }
}

// ---------------------------------------------------------------------------
// Guard bookkeeping
// ---------------------------------------------------------------------------

/// A non-blocking `std::sync` acquisition as the wrappers report it: the
/// guard (poison recovered), or `None` while another holder has the lock.
fn try_raw<G>(result: TryLockResult<G>) -> Option<G> {
    match result {
        Ok(g) => Some(g),
        Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

/// Per-guard instrumentation state: which lock, and since when it is
/// held.  A ZST in passthrough builds.
struct Trace {
    #[cfg(any(debug_assertions, feature = "lock-graph"))]
    id: u64,
    #[cfg(any(debug_assertions, feature = "lock-graph"))]
    name: &'static str,
    #[cfg(any(debug_assertions, feature = "lock-graph"))]
    acquired: Instant,
}

impl Trace {
    #[cfg(any(debug_assertions, feature = "lock-graph"))]
    fn new(id: u64, name: &'static str) -> Self {
        Trace {
            id,
            name,
            // crac-lint: allow(raw-instant) — this *is* the hold-time instrumentation
            acquired: Instant::now(),
        }
    }

    #[cfg(not(any(debug_assertions, feature = "lock-graph")))]
    fn passthrough() -> Self {
        Trace {}
    }

    fn on_release(&self) {
        #[cfg(any(debug_assertions, feature = "lock-graph"))]
        {
            stats::record_hold_us(self.acquired.elapsed().as_micros() as u64);
            lock_graph::on_release(self.id);
        }
    }
}

/// Shared blocking-acquire protocol: edge recording + cycle check before
/// the acquisition, contention/wait accounting around it, held-stack
/// push after it.
#[cfg(any(debug_assertions, feature = "lock-graph"))]
fn traced_acquire<G>(
    meta: &LockMeta,
    site: &'static Location<'static>,
    try_acquire: impl FnOnce() -> Option<G>,
    block_acquire: impl FnOnce() -> G,
) -> (G, Trace) {
    let id = meta.id();
    lock_graph::on_acquire_attempt(id, meta.name, site);
    let inner = match try_acquire() {
        Some(g) => g,
        None => {
            stats::note_contended();
            // crac-lint: allow(raw-instant) — this *is* the wait-time instrumentation
            let t0 = Instant::now();
            let g = block_acquire();
            stats::record_wait_us(t0.elapsed().as_micros() as u64);
            g
        }
    };
    stats::note_acquire();
    lock_graph::on_acquired(id, meta.name, site);
    (inner, Trace::new(id, meta.name))
}

/// Non-blocking acquires cannot deadlock, so they push the held stack
/// (edges *from* them still matter) without recording an edge of their
/// own.
#[cfg(any(debug_assertions, feature = "lock-graph"))]
fn traced_try_acquire<G>(
    meta: &LockMeta,
    site: &'static Location<'static>,
    try_acquire: impl FnOnce() -> Option<G>,
) -> Option<(G, Trace)> {
    let g = try_acquire()?;
    let id = meta.id();
    stats::note_acquire();
    lock_graph::on_acquired(id, meta.name, site);
    Some((g, Trace::new(id, meta.name)))
}

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

/// A named, instrumented mutual-exclusion lock over `std::sync::Mutex`
/// whose guards come back directly (poison recovered).
pub struct Mutex<T: ?Sized> {
    meta: LockMeta,
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex named `name` protecting `value`.  The name
    /// identifies the lock in deadlock reports and diagnostics; pick a
    /// stable `subsystem.field` style string.
    pub const fn new(name: &'static str, value: T) -> Self {
        Mutex {
            meta: LockMeta::new(name),
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// The lock's static name.
    pub fn name(&self) -> &'static str {
        self.meta.name
    }

    /// Acquires the lock, blocking until it is available.
    #[track_caller]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(any(debug_assertions, feature = "lock-graph"))]
        {
            let (inner, trace) = traced_acquire(
                &self.meta,
                Location::caller(),
                || try_raw(self.inner.try_lock()),
                || self.inner.lock().unwrap_or_else(PoisonError::into_inner),
            );
            MutexGuard {
                trace,
                inner: Some(inner),
            }
        }
        #[cfg(not(any(debug_assertions, feature = "lock-graph")))]
        {
            MutexGuard {
                trace: Trace::passthrough(),
                inner: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)),
            }
        }
    }

    /// Attempts to acquire the lock without blocking.
    #[track_caller]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        #[cfg(any(debug_assertions, feature = "lock-graph"))]
        {
            let (inner, trace) = traced_try_acquire(&self.meta, Location::caller(), || {
                try_raw(self.inner.try_lock())
            })?;
            Some(MutexGuard {
                trace,
                inner: Some(inner),
            })
        }
        #[cfg(not(any(debug_assertions, feature = "lock-graph")))]
        {
            Some(MutexGuard {
                trace: Trace::passthrough(),
                inner: Some(try_raw(self.inner.try_lock())?),
            })
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("Mutex");
        d.field("name", &self.meta.name);
        match try_raw(self.inner.try_lock()) {
            Some(guard) => d.field("data", &&*guard),
            None => d.field("data", &"<locked>"),
        };
        d.finish()
    }
}

/// Guard for [`Mutex::lock`]; releases (and records hold time) on drop.
pub struct MutexGuard<'a, T: ?Sized> {
    trace: Trace,
    /// `None` only transiently inside [`Condvar::wait`], which moves the
    /// raw guard out before re-wrapping the reacquired lock.
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // Invariant: `inner` is only `None` after `Condvar::wait` took
        // it, and the empty shell is dropped inside that call.
        match &self.inner {
            Some(g) => g,
            None => unreachable!("guard used after Condvar::wait consumed it"),
        }
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        match &mut self.inner {
            Some(g) => g,
            None => unreachable!("guard used after Condvar::wait consumed it"),
        }
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if self.inner.is_some() {
            self.trace.on_release();
        }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

// ---------------------------------------------------------------------------
// Condvar
// ---------------------------------------------------------------------------

/// A condition variable paired with [`Mutex`]: poison-free, and its
/// wait/reacquire cycle keeps the lock-order bookkeeping consistent.
#[derive(Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// A fresh condition variable.
    pub const fn new() -> Self {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }

    /// Atomically releases `guard` and blocks until notified, then
    /// reacquires the lock and returns the new guard.
    #[track_caller]
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        #[cfg(any(debug_assertions, feature = "lock-graph"))]
        let site = Location::caller();
        let (raw, id_name) = Self::unwrap_guard(guard);
        let raw = self.inner.wait(raw).unwrap_or_else(PoisonError::into_inner);
        #[cfg(any(debug_assertions, feature = "lock-graph"))]
        {
            Self::rewrap_guard(raw, id_name, site)
        }
        #[cfg(not(any(debug_assertions, feature = "lock-graph")))]
        {
            let _ = id_name;
            MutexGuard {
                trace: Trace::passthrough(),
                inner: Some(raw),
            }
        }
    }

    /// Like [`Condvar::wait`] with a timeout; the boolean is `true` when
    /// the wait timed out.
    #[track_caller]
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: std::time::Duration,
    ) -> (MutexGuard<'a, T>, bool) {
        #[cfg(any(debug_assertions, feature = "lock-graph"))]
        let site = Location::caller();
        let (raw, id_name) = Self::unwrap_guard(guard);
        let (raw, result) = self
            .inner
            .wait_timeout(raw, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        let timed_out = result.timed_out();
        #[cfg(any(debug_assertions, feature = "lock-graph"))]
        {
            (Self::rewrap_guard(raw, id_name, site), timed_out)
        }
        #[cfg(not(any(debug_assertions, feature = "lock-graph")))]
        {
            let _ = id_name;
            (
                MutexGuard {
                    trace: Trace::passthrough(),
                    inner: Some(raw),
                },
                timed_out,
            )
        }
    }

    /// Blocks until `condition` returns `false` (re-checking after every
    /// wakeup), then returns the guard.
    #[track_caller]
    pub fn wait_while<'a, T>(
        &self,
        mut guard: MutexGuard<'a, T>,
        mut condition: impl FnMut(&mut T) -> bool,
    ) -> MutexGuard<'a, T> {
        while condition(&mut guard) {
            guard = self.wait(guard);
        }
        guard
    }

    /// Releases bookkeeping and extracts the raw guard for the wait.
    fn unwrap_guard<'a, T>(
        mut guard: MutexGuard<'a, T>,
    ) -> (std::sync::MutexGuard<'a, T>, (u64, &'static str)) {
        guard.trace.on_release();
        #[cfg(any(debug_assertions, feature = "lock-graph"))]
        let id_name = (guard.trace.id, guard.trace.name);
        #[cfg(not(any(debug_assertions, feature = "lock-graph")))]
        let id_name = (0, "");
        let raw = match guard.inner.take() {
            Some(g) => g,
            None => unreachable!("guard already consumed by a previous wait"),
        };
        // `inner` is now `None`, so dropping the shell skips the release
        // bookkeeping that already ran above.
        drop(guard);
        (raw, id_name)
    }

    /// Rebuilds the instrumented guard after the wait reacquired the
    /// lock (a fresh acquisition as far as the order graph is
    /// concerned).
    #[cfg(any(debug_assertions, feature = "lock-graph"))]
    fn rewrap_guard<'a, T>(
        raw: std::sync::MutexGuard<'a, T>,
        (id, name): (u64, &'static str),
        site: &'static Location<'static>,
    ) -> MutexGuard<'a, T> {
        lock_graph::on_acquire_attempt(id, name, site);
        stats::note_acquire();
        lock_graph::on_acquired(id, name, site);
        MutexGuard {
            trace: Trace::new(id, name),
            inner: Some(raw),
        }
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Condvar").finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------------
// RwLock
// ---------------------------------------------------------------------------

/// A named, instrumented reader-writer lock over `std::sync::RwLock` whose
/// guards come back directly (poison recovered).
///
/// Read and write acquisitions share the lock's single node in the order
/// graph: a `read(A) → write(B)` order in one thread and `read(B) →
/// write(A)` in another is reported as a cycle even though two pure
/// readers could coexist — the write side of the same pattern deadlocks,
/// and the ordering itself is the bug.
pub struct RwLock<T: ?Sized> {
    meta: LockMeta,
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates a new reader-writer lock named `name` protecting `value`.
    pub const fn new(name: &'static str, value: T) -> Self {
        RwLock {
            meta: LockMeta::new(name),
            inner: std::sync::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// The lock's static name.
    pub fn name(&self) -> &'static str {
        self.meta.name
    }

    /// Acquires shared read access, blocking until available.
    #[track_caller]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        #[cfg(any(debug_assertions, feature = "lock-graph"))]
        {
            let (inner, trace) = traced_acquire(
                &self.meta,
                Location::caller(),
                || try_raw(self.inner.try_read()),
                || self.inner.read().unwrap_or_else(PoisonError::into_inner),
            );
            RwLockReadGuard { trace, inner }
        }
        #[cfg(not(any(debug_assertions, feature = "lock-graph")))]
        {
            RwLockReadGuard {
                trace: Trace::passthrough(),
                inner: self.inner.read().unwrap_or_else(PoisonError::into_inner),
            }
        }
    }

    /// Acquires exclusive write access, blocking until available.
    #[track_caller]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        #[cfg(any(debug_assertions, feature = "lock-graph"))]
        {
            let (inner, trace) = traced_acquire(
                &self.meta,
                Location::caller(),
                || try_raw(self.inner.try_write()),
                || self.inner.write().unwrap_or_else(PoisonError::into_inner),
            );
            RwLockWriteGuard { trace, inner }
        }
        #[cfg(not(any(debug_assertions, feature = "lock-graph")))]
        {
            RwLockWriteGuard {
                trace: Trace::passthrough(),
                inner: self.inner.write().unwrap_or_else(PoisonError::into_inner),
            }
        }
    }

    /// Attempts shared read access without blocking.
    #[track_caller]
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        #[cfg(any(debug_assertions, feature = "lock-graph"))]
        {
            let (inner, trace) = traced_try_acquire(&self.meta, Location::caller(), || {
                try_raw(self.inner.try_read())
            })?;
            Some(RwLockReadGuard { trace, inner })
        }
        #[cfg(not(any(debug_assertions, feature = "lock-graph")))]
        {
            Some(RwLockReadGuard {
                trace: Trace::passthrough(),
                inner: try_raw(self.inner.try_read())?,
            })
        }
    }

    /// Attempts exclusive write access without blocking.
    #[track_caller]
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        #[cfg(any(debug_assertions, feature = "lock-graph"))]
        {
            let (inner, trace) = traced_try_acquire(&self.meta, Location::caller(), || {
                try_raw(self.inner.try_write())
            })?;
            Some(RwLockWriteGuard { trace, inner })
        }
        #[cfg(not(any(debug_assertions, feature = "lock-graph")))]
        {
            Some(RwLockWriteGuard {
                trace: Trace::passthrough(),
                inner: try_raw(self.inner.try_write())?,
            })
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("RwLock");
        d.field("name", &self.meta.name);
        match try_raw(self.inner.try_read()) {
            Some(guard) => d.field("data", &&*guard),
            None => d.field("data", &"<locked>"),
        };
        d.finish()
    }
}

/// Guard for [`RwLock::read`]; releases (and records hold time) on drop.
pub struct RwLockReadGuard<'a, T: ?Sized> {
    trace: Trace,
    inner: std::sync::RwLockReadGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        self.trace.on_release();
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLockReadGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Guard for [`RwLock::write`]; releases (and records hold time) on
/// drop.
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    trace: Trace,
    inner: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        self.trace.on_release();
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLockWriteGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_round_trip_and_name() {
        let m = Mutex::new("test.counter", 41);
        assert_eq!(m.name(), "test.counter");
        *m.lock() += 1;
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn rwlock_round_trip() {
        let l = RwLock::new("test.rw", String::from("a"));
        l.write().push('b');
        assert_eq!(&*l.read(), "ab");
        assert!(l.try_write().is_some());
        assert!(l.try_read().is_some());
    }

    #[test]
    fn try_lock_refuses_while_held() {
        let m = Mutex::new("test.try", 0u32);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    /// A fresh lock holding 1, poisoned by a thread that wrote the value
    /// and then panicked while still holding the lock.
    fn poisoned_mutex() -> Mutex<u32> {
        let m = Mutex::new("test.poison", 0u32);
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let mut g = m.lock();
                *g = 1;
                panic!("poison it");
            });
            assert!(holder.join().is_err());
        });
        assert!(m.inner.is_poisoned());
        m
    }

    fn poisoned_rwlock() -> RwLock<u32> {
        let l = RwLock::new("test.poison_rw", 0u32);
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let mut g = l.write();
                *g = 1;
                panic!("poison it");
            });
            assert!(holder.join().is_err());
        });
        assert!(l.inner.is_poisoned());
        l
    }

    #[test]
    fn poisoned_lock_is_recovered() {
        type ReadBack = fn() -> u32;
        let cases: [(&str, ReadBack); 11] = [
            ("Mutex::lock", || *poisoned_mutex().lock()),
            ("Mutex::try_lock", || *poisoned_mutex().try_lock().unwrap()),
            ("Mutex::into_inner", || poisoned_mutex().into_inner()),
            ("Mutex::get_mut", || *poisoned_mutex().get_mut()),
            ("RwLock::read", || *poisoned_rwlock().read()),
            ("RwLock::write", || *poisoned_rwlock().write()),
            ("RwLock::try_read", || {
                *poisoned_rwlock().try_read().unwrap()
            }),
            ("RwLock::try_write", || {
                *poisoned_rwlock().try_write().unwrap()
            }),
            ("RwLock::into_inner", || poisoned_rwlock().into_inner()),
            ("RwLock::get_mut", || *poisoned_rwlock().get_mut()),
            ("Condvar::wait_timeout", || {
                let m = poisoned_mutex();
                let (g, timed_out) =
                    Condvar::new().wait_timeout(m.lock(), std::time::Duration::from_millis(1));
                assert!(timed_out);
                *g
            }),
        ];
        for (call, read_back) in cases {
            assert_eq!(read_back(), 1, "{call} after a holder panicked");
        }
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new("test.cv", false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let waiter = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let g = cv.wait_while(m.lock(), |ready| !*ready);
            assert!(*g);
        });
        {
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_all();
        }
        waiter.join().expect("waiter exits cleanly");
    }

    #[test]
    fn condvar_wait_timeout_reports_timeout() {
        let m = Mutex::new("test.cv_timeout", ());
        let cv = Condvar::new();
        let (g, timed_out) = cv.wait_timeout(m.lock(), std::time::Duration::from_millis(5));
        assert!(timed_out);
        drop(g);
    }

    #[test]
    fn stats_observe_acquisitions_when_instrumented() {
        let before = stats::snapshot();
        let m = Mutex::new("test.stats", 0u8);
        for _ in 0..10 {
            let _g = m.lock();
        }
        let after = stats::snapshot();
        if instrumented() {
            assert!(after.acquires >= before.acquires + 10);
            assert!(after.hold_us.count >= before.hold_us.count + 10);
        } else {
            assert_eq!(after.acquires, 0);
        }
    }
}
