//! Atomics/fence facade shared by every lock-free protocol in the tree.
//!
//! Normally these are zero-cost wrappers around `std::sync::atomic` (all
//! methods are `#[inline]` passthroughs). Under `--cfg sfrd_model` every
//! operation first calls [`crate::model::yield_point`], turning each atomic
//! access into a scheduling point of the in-crate deterministic-interleaving
//! model checker. Code written against this facade — the Chase-Lev deque
//! here, the packed shadow word in `sfrd-shadow`, the order-maintenance
//! seqlock in `sfrd-om` — can therefore be driven through thousands of
//! schedules without a separate model of the protocol: the model checker
//! runs the real implementation.
//!
//! [`Mutex`] participates in the lock-op census: under `sfrd_model` each
//! `lock()` increments a per-execution counter, so model tests can assert
//! that a hot path performed **zero** mutex acquisitions.

pub use std::sync::atomic::Ordering;

#[cfg(sfrd_model)]
use crate::model;

/// Model-checker scheduling point; no-op outside `cfg(sfrd_model)`.
#[inline(always)]
pub fn yield_point() {
    #[cfg(sfrd_model)]
    model::yield_point();
}

macro_rules! atomic_int {
    ($(#[$m:meta])* $name:ident, $std:ident, $prim:ty) => {
        $(#[$m])*
        #[derive(Debug, Default)]
        #[repr(transparent)]
        pub struct $name(std::sync::atomic::$std);

        impl $name {
            /// New atomic initialized to `v`.
            pub const fn new(v: $prim) -> Self {
                Self(std::sync::atomic::$std::new(v))
            }

            /// Atomic load.
            #[inline]
            pub fn load(&self, o: Ordering) -> $prim {
                yield_point();
                self.0.load(o)
            }

            /// Atomic store.
            #[inline]
            pub fn store(&self, v: $prim, o: Ordering) {
                yield_point();
                self.0.store(v, o)
            }

            /// Atomic swap.
            #[inline]
            pub fn swap(&self, v: $prim, o: Ordering) -> $prim {
                yield_point();
                self.0.swap(v, o)
            }

            /// Atomic add, returning the previous value.
            #[inline]
            pub fn fetch_add(&self, v: $prim, o: Ordering) -> $prim {
                yield_point();
                self.0.fetch_add(v, o)
            }

            /// Atomic subtract, returning the previous value.
            #[inline]
            pub fn fetch_sub(&self, v: $prim, o: Ordering) -> $prim {
                yield_point();
                self.0.fetch_sub(v, o)
            }

            /// Atomic compare-and-exchange.
            #[inline]
            pub fn compare_exchange(
                &self,
                cur: $prim,
                new: $prim,
                ok: Ordering,
                err: Ordering,
            ) -> Result<$prim, $prim> {
                yield_point();
                self.0.compare_exchange(cur, new, ok, err)
            }

            /// Atomic compare-and-exchange allowed to fail spuriously.
            #[inline]
            pub fn compare_exchange_weak(
                &self,
                cur: $prim,
                new: $prim,
                ok: Ordering,
                err: Ordering,
            ) -> Result<$prim, $prim> {
                yield_point();
                self.0.compare_exchange_weak(cur, new, ok, err)
            }

            /// Mutable access; no synchronization needed (`&mut self`).
            #[inline]
            pub fn get_mut(&mut self) -> &mut $prim {
                self.0.get_mut()
            }
        }
    };
}

atomic_int!(
    /// Facade over [`std::sync::atomic::AtomicU32`].
    AtomicU32, AtomicU32, u32
);
atomic_int!(
    /// Facade over [`std::sync::atomic::AtomicU64`].
    AtomicU64, AtomicU64, u64
);
atomic_int!(
    /// Facade over [`std::sync::atomic::AtomicUsize`].
    AtomicUsize, AtomicUsize, usize
);
atomic_int!(
    /// Facade over [`std::sync::atomic::AtomicIsize`].
    AtomicIsize, AtomicIsize, isize
);

/// Facade over [`std::sync::atomic::AtomicBool`].
#[derive(Debug, Default)]
#[repr(transparent)]
pub struct AtomicBool(std::sync::atomic::AtomicBool);

impl AtomicBool {
    /// New atomic initialized to `v`.
    pub const fn new(v: bool) -> Self {
        Self(std::sync::atomic::AtomicBool::new(v))
    }

    /// Atomic load.
    #[inline]
    pub fn load(&self, o: Ordering) -> bool {
        yield_point();
        self.0.load(o)
    }

    /// Atomic store.
    #[inline]
    pub fn store(&self, v: bool, o: Ordering) {
        yield_point();
        self.0.store(v, o)
    }

    /// Atomic swap.
    #[inline]
    pub fn swap(&self, v: bool, o: Ordering) -> bool {
        yield_point();
        self.0.swap(v, o)
    }
}

/// Facade over [`std::sync::atomic::AtomicPtr`].
#[derive(Debug)]
#[repr(transparent)]
pub struct AtomicPtr<T>(std::sync::atomic::AtomicPtr<T>);

impl<T> Default for AtomicPtr<T> {
    fn default() -> Self {
        Self::new(std::ptr::null_mut())
    }
}

impl<T> AtomicPtr<T> {
    /// New atomic initialized to `p`.
    pub const fn new(p: *mut T) -> Self {
        Self(std::sync::atomic::AtomicPtr::new(p))
    }

    /// Atomic load.
    #[inline]
    pub fn load(&self, o: Ordering) -> *mut T {
        yield_point();
        self.0.load(o)
    }

    /// Atomic store.
    #[inline]
    pub fn store(&self, p: *mut T, o: Ordering) {
        yield_point();
        self.0.store(p, o)
    }

    /// Atomic swap.
    #[inline]
    pub fn swap(&self, p: *mut T, o: Ordering) -> *mut T {
        yield_point();
        self.0.swap(p, o)
    }

    /// Atomic compare-and-exchange.
    #[inline]
    pub fn compare_exchange(
        &self,
        cur: *mut T,
        new: *mut T,
        ok: Ordering,
        err: Ordering,
    ) -> Result<*mut T, *mut T> {
        yield_point();
        self.0.compare_exchange(cur, new, ok, err)
    }

    /// Mutable access; no synchronization needed (`&mut self`).
    #[inline]
    pub fn get_mut(&mut self) -> &mut *mut T {
        self.0.get_mut()
    }
}

/// Facade over [`std::cell::UnsafeCell`] for data a flag publishes.
///
/// [`UnsafeCell::get`] is a scheduling point under the model checker, so
/// an explored schedule can run another thread between a flag's store and
/// a write it should have published, and a reader that trusts the flag
/// sees the hole.
#[repr(transparent)]
pub struct UnsafeCell<T: ?Sized>(std::cell::UnsafeCell<T>);

impl<T> UnsafeCell<T> {
    /// New cell holding `v`.
    pub const fn new(v: T) -> Self {
        Self(std::cell::UnsafeCell::new(v))
    }
}

impl<T: ?Sized> UnsafeCell<T> {
    /// Raw pointer to the contents; the caller upholds the aliasing rules.
    #[inline]
    pub fn get(&self) -> *mut T {
        yield_point();
        self.0.get()
    }
}

/// Memory fence; a scheduling point under the model checker.
#[inline]
pub fn fence(o: Ordering) {
    yield_point();
    std::sync::atomic::fence(o);
}

/// Spin hint. Under the model checker this yields instead of spinning so
/// busy-wait loops make progress under cooperative scheduling.
#[inline]
pub fn spin_loop() {
    #[cfg(sfrd_model)]
    model::yield_point();
    #[cfg(not(sfrd_model))]
    std::hint::spin_loop();
}

/// Mutex participating in the model checker's lock-op census.
///
/// Outside `cfg(sfrd_model)` this is exactly `parking_lot::Mutex`. Under the
/// model it (a) increments the per-execution lock counter — the census that
/// proves a hot path is lock-free — and (b) acquires via a `try_lock`/yield
/// loop so a held lock never blocks the cooperative scheduler's OS thread.
pub struct Mutex<T: ?Sized>(parking_lot::Mutex<T>);

/// Guard type returned by [`Mutex::lock`].
pub type MutexGuard<'a, T> = parking_lot::MutexGuard<'a, T>;

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T> Mutex<T> {
    /// New mutex holding `v`.
    pub const fn new(v: T) -> Self {
        Self(parking_lot::Mutex::new(v))
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock (counted by the model's lock-op census).
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(sfrd_model)]
        {
            model::on_lock();
            if model::active() {
                loop {
                    match self.0.try_lock() {
                        Some(g) => return g,
                        None => model::yield_point(),
                    }
                }
            }
        }
        self.0.lock()
    }

    /// Mutable access; no locking needed (`&mut self`).
    #[inline]
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut()
    }
}
