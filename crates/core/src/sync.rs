//! Ranked locks over `std::sync`: the workspace's one lock order, in code.
//!
//! Every [`Mutex`], [`RwLock`] and [`Condvar`] in the workspace comes from
//! here, and every lock constructor takes the [`LockRank`] of its lock
//! class. Two properties hold:
//!
//! * **No poisoning.** A panic while a guard is held leaves the lock
//!   usable (`PoisonError::into_inner`). The engine's panic isolation
//!   relies on it: a quarantined episode must never wedge the session's
//!   shared state behind a poisoned latch.
//! * **Ranks only increase (debug builds).** Each thread keeps the set of
//!   ranks it holds. Acquiring a lock whose rank is not greater than every
//!   held rank — an inversion, or a second lock of a class already held —
//!   prints the held ranks and the new one and aborts the process. It does
//!   not panic: the engine's `catch_unwind` would turn a panic into a
//!   quarantined query and hide the bug. Guards may drop in any order, and
//!   unwinding drops them too, so a contained panic leaves no rank behind.
//!
//! [`assert_no_locks_held`] is the check for blocking calls: every `recv`,
//! `join`, `accept`, `sleep`, socket read or write in library code is
//! preceded by it. Blocking under a lock aborts just as an inversion does,
//! so neither a swallowed thread panic nor `catch_unwind` can hide it.
//!
//! Release builds compile the rank bookkeeping out: each wrapper has the
//! size of its `std` type, and `lock()` is `std`'s `lock()` plus
//! `into_inner` on the poison path.

#![allow(clippy::disallowed_types)] // the one place the `std` locks are named

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{self, PoisonError, TryLockError};

/// The workspace's lock classes, outermost first. A thread may acquire a
/// lock only if its rank is greater than every rank the thread holds.
///
/// Instances of one class share a rank: holding two `Stem` latches at
/// once, or re-entering any lock, is a violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum LockRank {
    /// Server frontend: the admission queue is popped before any engine
    /// state is touched, and its guard never outlives the pop.
    AdmissionQueue,
    /// The server's hosted catalog snapshot: cloned once per batch after
    /// the pop and swapped by the stream epoch thread; nothing nests
    /// inside it.
    ServerCatalog,
    /// Engine core: the step-driven path owns its scratch arena for the
    /// whole episode, and every other engine lock nests inside it.
    SessionScratch,
    /// Ingestion feeds the episode (circular scans, completion flushing).
    SessionIngestion,
    /// Per-worker morsel queues: a refill pushes grabbed vectors under the
    /// ingestion latch; steals take a single victim queue with nothing
    /// held.
    SessionWork,
    /// The policy is consulted during planning, inside scratch (and after
    /// ingestion state is read).
    SessionPolicy,
    /// The greedy fallback policy used by the watchdog replan path.
    EngineFallback,
    /// Episode traces are appended after an episode completes.
    SessionTraces,
    /// The STeM latch (one per relation; instances are not distinguished).
    Stem,
    /// Result sinks: per-query collected rows, then quarantine errors.
    OutputsCollected,
    /// Per-query quarantine errors.
    OutputsErrors,
    /// Telemetry is always innermost: recorder hooks fire from inside
    /// every engine path and must never wait on engine locks. First the
    /// sink's admission timestamps…
    TelemetryAdmitTimes,
    /// …then the metrics registry…
    MetricsRegistry,
    /// …then the event ring.
    EventRing,
    /// The load generator's merged latencies: each client worker merges
    /// its local histogram once, at exit. A leaf, outside the engine.
    LoadgenLatencies,
}

impl LockRank {
    /// Every rank, in order.
    pub const ALL: [LockRank; 15] = [
        LockRank::AdmissionQueue,
        LockRank::ServerCatalog,
        LockRank::SessionScratch,
        LockRank::SessionIngestion,
        LockRank::SessionWork,
        LockRank::SessionPolicy,
        LockRank::EngineFallback,
        LockRank::SessionTraces,
        LockRank::Stem,
        LockRank::OutputsCollected,
        LockRank::OutputsErrors,
        LockRank::TelemetryAdmitTimes,
        LockRank::MetricsRegistry,
        LockRank::EventRing,
        LockRank::LoadgenLatencies,
    ];
}

/// Whether the calling thread holds no lock from this module; release
/// builds always say `true`.
pub fn no_locks_held() -> bool {
    rank::held_set() == 0
}

/// Called before a blocking call (`recv`, `join`, `accept`, `sleep`, a
/// socket read or write): in debug builds, if the calling thread holds a
/// lock from this module, writes the held ranks, the call site and a
/// backtrace to stderr and aborts the process, as a rank violation does.
/// Release builds compile it to nothing.
#[track_caller]
#[inline(always)]
pub fn assert_no_locks_held() {
    #[cfg(debug_assertions)]
    rank::check_blocking(std::panic::Location::caller());
}

/// The rank bookkeeping; a zero-sized no-op in release builds.
mod rank {
    use super::LockRank;

    /// Bit `r` is set while the thread holds a lock of rank `r`.
    pub(super) type HeldSet = u32;

    /// Acquiring `rank` with `held` held: the new held set, or `None` when
    /// `rank` is not greater than every held rank.
    #[cfg(any(debug_assertions, test))]
    pub(super) fn admit(held: HeldSet, rank: LockRank) -> Option<HeldSet> {
        (held >> rank as u32 == 0).then_some(held | 1 << rank as u32)
    }

    /// The held set after releasing `rank`.
    #[cfg(any(debug_assertions, test))]
    pub(super) fn release(held: HeldSet, rank: LockRank) -> HeldSet {
        held & !(1 << rank as u32)
    }

    #[cfg(debug_assertions)]
    mod imp {
        use super::{admit, release, HeldSet, LockRank};
        use std::cell::Cell;
        use std::io::Write;

        thread_local! {
            static HELD: Cell<HeldSet> = const { Cell::new(0) };
        }

        /// The rank a lock was built with.
        #[derive(Clone, Copy)]
        pub(in crate::sync) struct Ranked(LockRank);

        /// One held rank; dropping it (with its guard) releases the rank.
        pub(in crate::sync) struct Held(LockRank);

        impl Ranked {
            pub(in crate::sync) const fn new(rank: LockRank) -> Ranked {
                Ranked(rank)
            }

            /// Checks and records the acquisition. Call before blocking on
            /// the lock, so an inversion aborts instead of deadlocking.
            pub(in crate::sync) fn acquire(self) -> Held {
                // `try_with` fails only during thread teardown, when no
                // order can be violated any more.
                let _ = HELD.try_with(|held| match admit(held.get(), self.0) {
                    Some(next) => held.set(next),
                    None => violation(held.get(), format_args!("acquiring {:?}", self.0)),
                });
                Held(self.0)
            }
        }

        impl Drop for Held {
            fn drop(&mut self) {
                let _ = HELD.try_with(|held| held.set(release(held.get(), self.0)));
            }
        }

        pub(in crate::sync) fn held_set() -> HeldSet {
            HELD.try_with(Cell::get).unwrap_or(0)
        }

        /// Aborts if the thread blocks at `at` while holding a lock.
        pub(in crate::sync) fn check_blocking(at: &std::panic::Location<'_>) {
            let held = held_set();
            if held != 0 {
                violation(held, format_args!("blocking at {at}"));
            }
        }

        /// Reports `what` the thread did while holding `held` and aborts.
        fn violation(held: HeldSet, what: std::fmt::Arguments<'_>) -> ! {
            let names: Vec<LockRank> =
                LockRank::ALL.into_iter().filter(|r| held & 1 << *r as u32 != 0).collect();
            // Straight to the stderr handle, not `eprintln!`: the test
            // harness captures the macro's output, and the abort would
            // discard it.
            let _ = writeln!(
                std::io::stderr(),
                "lock-rank violation: {what} while holding {names:?} \
                 (ranks must strictly increase and no lock may be held across a \
                 blocking call; see roulette_core::sync)\n{}",
                std::backtrace::Backtrace::force_capture()
            );
            std::process::abort()
        }
    }

    #[cfg(not(debug_assertions))]
    mod imp {
        use super::{HeldSet, LockRank};

        #[derive(Clone, Copy)]
        pub(in crate::sync) struct Ranked;

        pub(in crate::sync) struct Held;

        impl Ranked {
            pub(in crate::sync) const fn new(_rank: LockRank) -> Ranked {
                Ranked
            }

            #[inline(always)]
            pub(in crate::sync) fn acquire(self) -> Held {
                Held
            }
        }

        #[inline(always)]
        pub(in crate::sync) fn held_set() -> HeldSet {
            0
        }
    }

    #[cfg(debug_assertions)]
    pub(super) use imp::check_blocking;
    pub(super) use imp::{held_set, Held, Ranked};
}

use rank::{Held, Ranked};

/// A mutual-exclusion lock that ignores poisoning and checks its rank.
pub struct Mutex<T: ?Sized> {
    rank: Ranked,
    inner: sync::Mutex<T>,
}

/// RAII guard of [`Mutex::lock`]; releases the lock, then its rank.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: sync::MutexGuard<'a, T>,
    held: Held,
}

impl<T> Mutex<T> {
    /// A new mutex of lock class `rank`.
    pub const fn new(rank: LockRank, value: T) -> Self {
        Mutex { rank: Ranked::new(rank), inner: sync::Mutex::new(value) }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until available. Never poisons.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let held = self.rank.acquire();
        MutexGuard { inner: self.inner.lock().unwrap_or_else(PoisonError::into_inner), held }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `try_lock` never blocks, so it needs no rank check.
        match self.inner.try_lock() {
            Ok(g) => f.debug_struct("Mutex").field("data", &&*g).finish(),
            Err(TryLockError::Poisoned(e)) => {
                f.debug_struct("Mutex").field("data", &&*e.into_inner()).finish()
            }
            Err(TryLockError::WouldBlock) => f.write_str("Mutex { <locked> }"),
        }
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A reader-writer lock that ignores poisoning and checks its rank.
pub struct RwLock<T: ?Sized> {
    rank: Ranked,
    inner: sync::RwLock<T>,
}

/// RAII guard of [`RwLock::read`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: sync::RwLockReadGuard<'a, T>,
    _held: Held,
}

/// RAII guard of [`RwLock::write`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: sync::RwLockWriteGuard<'a, T>,
    _held: Held,
}

impl<T> RwLock<T> {
    /// A new reader-writer lock of lock class `rank`.
    pub const fn new(rank: LockRank, value: T) -> Self {
        RwLock { rank: Ranked::new(rank), inner: sync::RwLock::new(value) }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Mutable access without locking: the borrow proves exclusivity, so
    /// no rank is taken.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquires shared read access. Never poisons.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let _held = self.rank.acquire();
        RwLockReadGuard { inner: self.inner.read().unwrap_or_else(PoisonError::into_inner), _held }
    }

    /// Acquires exclusive write access. Never poisons.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let _held = self.rank.acquire();
        RwLockWriteGuard {
            inner: self.inner.write().unwrap_or_else(PoisonError::into_inner),
            _held,
        }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.inner.try_read() {
            Ok(g) => f.debug_struct("RwLock").field("data", &&*g).finish(),
            Err(TryLockError::Poisoned(e)) => {
                f.debug_struct("RwLock").field("data", &&*e.into_inner()).finish()
            }
            Err(TryLockError::WouldBlock) => f.write_str("RwLock { <locked> }"),
        }
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
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

/// A condition variable over [`Mutex`] that ignores poisoning.
#[derive(Debug, Default)]
pub struct Condvar {
    inner: sync::Condvar,
}

impl Condvar {
    /// A new condition variable.
    pub const fn new() -> Self {
        Condvar { inner: sync::Condvar::new() }
    }

    /// Releases `guard`'s lock, blocks until notified, and reacquires it.
    /// The returned guard keeps the rank `guard` held: the wait is not a
    /// new acquisition in the lock order.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let MutexGuard { inner, held } = guard;
        MutexGuard { inner: self.inner.wait(inner).unwrap_or_else(PoisonError::into_inner), held }
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

// Release builds keep only the `std` lock: no rank field, no held token.
#[cfg(not(debug_assertions))]
const _: () = {
    use std::mem::size_of;
    assert!(size_of::<Mutex<u64>>() == size_of::<sync::Mutex<u64>>());
    assert!(size_of::<MutexGuard<'static, u64>>() == size_of::<sync::MutexGuard<'static, u64>>());
    assert!(size_of::<RwLock<u64>>() == size_of::<sync::RwLock<u64>>());
    assert!(
        size_of::<RwLockReadGuard<'static, u64>>()
            == size_of::<sync::RwLockReadGuard<'static, u64>>()
    );
    assert!(
        size_of::<RwLockWriteGuard<'static, u64>>()
            == size_of::<sync::RwLockWriteGuard<'static, u64>>()
    );
    assert!(size_of::<Condvar>() == size_of::<sync::Condvar>());
};

#[cfg(test)]
mod tests {
    use super::rank::{admit, release};
    use super::*;
    use std::sync::{Arc, Barrier};

    fn bit(r: LockRank) -> u32 {
        1 << r as u32
    }

    #[test]
    fn mutex_round_trip() {
        let m = Mutex::new(LockRank::SessionTraces, 1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_readers_and_writer() {
        // Two readers at once, on two threads: one thread taking the same
        // class twice is reentrancy, which the ranks forbid.
        let l = Arc::new(RwLock::new(LockRank::Stem, vec![1, 2]));
        let both_reading = Arc::new(Barrier::new(2));
        let (l2, b2) = (Arc::clone(&l), Arc::clone(&both_reading));
        let other = std::thread::spawn(move || {
            let g = l2.read();
            b2.wait();
            g.len()
        });
        let a = l.read();
        both_reading.wait();
        assert_eq!(a.len() + other.join().expect("reader thread"), 4);
        drop(a);
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
    }

    #[test]
    fn panic_does_not_poison() {
        let m = Arc::new(Mutex::new(LockRank::OutputsErrors, 0));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        *m.lock() += 1; // would panic with std's poisoning semantics
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn in_order_nesting_is_admitted() {
        let mut held = 0;
        for r in [LockRank::SessionScratch, LockRank::SessionPolicy, LockRank::Stem] {
            held = admit(held, r).expect("increasing ranks nest");
        }
        assert_eq!(
            held,
            bit(LockRank::SessionScratch) | bit(LockRank::SessionPolicy) | bit(LockRank::Stem)
        );
        // Skipping ranks is fine; only the order matters.
        assert!(admit(bit(LockRank::AdmissionQueue), LockRank::LoadgenLatencies).is_some());
    }

    #[test]
    fn inversion_is_rejected() {
        assert_eq!(admit(bit(LockRank::SessionPolicy), LockRank::SessionIngestion), None);
        assert_eq!(admit(bit(LockRank::EventRing), LockRank::Stem), None);
        // Any held rank above the new one rejects it, even among lower ones.
        let held = bit(LockRank::SessionScratch) | bit(LockRank::OutputsErrors);
        assert_eq!(admit(held, LockRank::Stem), None);
    }

    #[test]
    fn same_class_reentrancy_is_rejected() {
        for r in LockRank::ALL {
            assert_eq!(admit(bit(r), r), None, "{r:?} twice");
        }
    }

    #[test]
    fn ranks_fit_the_held_set() {
        for (i, r) in LockRank::ALL.into_iter().enumerate() {
            assert_eq!(r as usize, i, "ALL lists the ranks in order");
        }
        assert!(LockRank::ALL.len() <= u32::BITS as usize);
        let all = LockRank::ALL.into_iter().fold(0, |h, r| admit(h, r).expect("in order"));
        let none = LockRank::ALL.into_iter().rev().fold(all, release);
        assert_eq!(none, 0);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn guards_drop_in_any_order() {
        let a = Mutex::new(LockRank::SessionIngestion, ());
        let b = Mutex::new(LockRank::SessionWork, ());
        let c = RwLock::new(LockRank::Stem, ());
        let ga = a.lock();
        let gb = b.lock();
        let gc = c.read();
        let all =
            bit(LockRank::SessionIngestion) | bit(LockRank::SessionWork) | bit(LockRank::Stem);
        assert_eq!(rank::held_set(), all);
        drop(gb);
        assert_eq!(rank::held_set(), bit(LockRank::SessionIngestion) | bit(LockRank::Stem));
        drop(ga);
        assert_eq!(rank::held_set(), bit(LockRank::Stem));
        assert!(!no_locks_held());
        drop(gc);
        assert!(no_locks_held());
        // The middle rank is free again.
        let _gb = b.lock();
        assert_eq!(rank::held_set(), bit(LockRank::SessionWork));
    }

    #[cfg(debug_assertions)]
    #[test]
    fn contained_panic_leaves_no_rank_and_no_poison() {
        let m = Mutex::new(LockRank::SessionPolicy, 0);
        let l = RwLock::new(LockRank::Stem, 0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _p = m.lock();
            let _s = l.write();
            panic!("episode panic");
        }));
        assert!(caught.is_err());
        assert!(no_locks_held(), "unwinding released every rank");
        *m.lock() += 1;
        *l.write() += 1;
        assert_eq!((*m.lock(), *l.read()), (1, 1));
    }

    #[cfg(debug_assertions)]
    #[test]
    fn condvar_wait_returns_a_guard_that_still_holds_its_rank() {
        let pair = Arc::new((Mutex::new(LockRank::AdmissionQueue, false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let notifier = std::thread::spawn(move || {
            *pair2.0.lock() = true;
            pair2.1.notify_all();
        });
        let (m, cv) = &*pair;
        let mut g = m.lock();
        while !*g {
            g = cv.wait(g);
        }
        assert_eq!(rank::held_set(), bit(LockRank::AdmissionQueue));
        drop(g);
        assert!(no_locks_held());
        notifier.join().expect("notifier thread");
    }

    #[test]
    fn no_locks_held_tracks_guards() {
        assert!(no_locks_held());
        assert_no_locks_held();
        let m = Mutex::new(LockRank::SessionWork, ());
        let l = RwLock::new(LockRank::Stem, ());
        {
            let _g = m.lock();
            assert_eq!(no_locks_held(), cfg!(not(debug_assertions)));
            let _r = l.read();
            assert_eq!(no_locks_held(), cfg!(not(debug_assertions)));
        }
        assert!(no_locks_held());
        assert_no_locks_held();
        drop(l.write());
        assert!(no_locks_held());
    }

    /// Blocks "under" a lock; run only as the child of
    /// `blocking_under_a_lock_aborts`, since it aborts the process.
    #[cfg(debug_assertions)]
    #[test]
    #[ignore = "aborts the process: run as a child by blocking_under_a_lock_aborts"]
    fn blocking_under_a_lock() {
        let m = Mutex::new(LockRank::ServerCatalog, ());
        let _g = m.lock();
        assert_no_locks_held();
    }

    #[cfg(all(debug_assertions, unix))]
    #[test]
    fn blocking_under_a_lock_aborts() {
        use std::os::unix::process::ExitStatusExt;
        let exe = std::env::current_exe().expect("test binary path");
        let out = std::process::Command::new(exe)
            .args(["--ignored", "--exact", "sync::tests::blocking_under_a_lock"])
            .output()
            .expect("re-run the test binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.signal(), Some(6), "SIGABRT expected, got {:?}", out.status);
        assert!(stderr.contains("blocking at"), "{stderr}");
        assert!(stderr.contains("ServerCatalog"), "{stderr}");
        assert!(stderr.contains("sync.rs"), "the call site is named: {stderr}");
    }
}
