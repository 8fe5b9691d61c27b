//! Append-only chunked arena with lock-free reads and concurrent appends.
//!
//! The order-maintenance list needs its item and group slots to be readable
//! by query threads while inserts append new slots. A plain `Vec` cannot do
//! this: growth reallocates and invalidates concurrent readers. This arena
//! never moves elements: it allocates geometrically growing buckets and
//! publishes them with release stores, so an index handed out by `push`
//! stays valid for the arena's lifetime.
//!
//! Since the decentralization of `OmList` inserts (group-local locking),
//! `push` must also be callable from *multiple* threads at once: two
//! inserts into different groups race on the item arena. Appends therefore
//! use a two-counter protocol: `reserved` hands out slots with a single
//! `fetch_add`, each writer initializes its slots off-lock, and `len` (the
//! readers' bound) advances strictly in reservation order so a published
//! index always denotes a fully initialized slot.
//!
//! An append of `N` consecutive slots (`push_run`, what one
//! `OmList::insert_n_after::<N>` needs) runs the protocol ONCE: one
//! `fetch_add(N)` reserves the run and one compare-exchange publishes it,
//! so a run costs two locked instructions whatever its length. Both are
//! needed: the reservation is what lets two groups' inserts append
//! concurrently without a shared lock, and the publication is what lets
//! the safe `get` bound-check against initialized slots only.

use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};

/// Number of buckets in the spine. Bucket `i` holds `BASE << i` elements,
/// so 32 buckets with BASE = 64 cover ~2^38 elements — far beyond any dag
/// we will ever record.
const SPINE: usize = 32;
/// Capacity of bucket 0.
const BASE: usize = 64;

/// Append-only arena: concurrent writers (slot reservation via
/// `fetch_add`, in-order publication), many concurrent readers.
pub struct AppendArena<T> {
    spine: [AtomicPtr<T>; SPINE],
    /// Slots handed out to writers (may transiently exceed `len`).
    reserved: AtomicUsize,
    /// Slots fully initialized and visible to readers.
    len: AtomicUsize,
}

/// Map a global index to (bucket, offset within bucket).
#[inline]
fn locate(index: usize) -> (usize, usize) {
    // Buckets have sizes BASE, 2*BASE, 4*BASE, ...; prefix sums are
    // BASE*(2^k - 1). Shifting by BASE turns this into pure bit math.
    let adjusted = index + BASE;
    let bucket =
        (usize::BITS - 1 - adjusted.leading_zeros()) as usize - BASE.trailing_zeros() as usize;
    let offset = adjusted - (BASE << bucket);
    (bucket, offset)
}

#[inline]
fn bucket_capacity(bucket: usize) -> usize {
    BASE << bucket
}

impl<T> AppendArena<T> {
    /// Create an empty arena.
    pub fn new() -> Self {
        Self {
            spine: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
            reserved: AtomicUsize::new(0),
            len: AtomicUsize::new(0),
        }
    }

    /// Number of initialized elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// True when no element has been pushed yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read an element. Panics if `index >= len()`.
    #[inline]
    pub fn get(&self, index: usize) -> &T {
        assert!(index < self.len(), "arena index {index} out of bounds");
        // SAFETY: index < len implies the bucket was published with Release
        // (we loaded len with Acquire) and the slot was fully written before
        // len advanced past it.
        unsafe { self.get_unchecked(index) }
    }

    /// Read an element without a bounds check.
    ///
    /// # Safety
    /// `index` must be less than a value previously observed from `len()`.
    #[inline]
    pub unsafe fn get_unchecked(&self, index: usize) -> &T {
        let (bucket, offset) = locate(index);
        let ptr = self.spine[bucket].load(Ordering::Acquire);
        debug_assert!(!ptr.is_null());
        unsafe { &*ptr.add(offset) }
    }

    /// Append an element, returning its index. Safe to call from many
    /// threads concurrently.
    pub fn push(&self, value: T) -> usize {
        self.push_run(|_| [value])
    }

    /// Append `N` consecutive elements built by `make(first)`, where
    /// `first` is the index the run's first element will have (element
    /// `k` lands at `first + k`, so elements may name each other);
    /// returns `first`. Safe to call from many threads concurrently.
    ///
    /// Protocol: reserve the run (`fetch_add(N)`), write its slots, then
    /// spin until every lower reservation has published and advance `len`
    /// past the whole run. The publication window is the slot writes of
    /// the predecessor — nanoseconds — so the spin is bounded in practice;
    /// `yield_now` keeps it live on oversubscribed single-core machines.
    ///
    /// `make` runs between reservation and publication: if it panicked,
    /// `len` would never pass the run and every later append would spin
    /// forever. Crate-internal for that reason; callers pass closures
    /// that only build values.
    pub(crate) fn push_run<const N: usize>(&self, make: impl FnOnce(usize) -> [T; N]) -> usize {
        let first = self.reserved.fetch_add(N, Ordering::Relaxed);
        let (mut bucket, mut offset) = locate(first);
        let mut ptr = self.bucket_ptr(bucket, offset == 0);
        for value in make(first) {
            if offset == bucket_capacity(bucket) {
                // The run crosses into the next bucket, at its offset 0.
                bucket += 1;
                offset = 0;
                ptr = self.bucket_ptr(bucket, true);
            }
            // SAFETY: the reservation gives this thread exclusive ownership
            // of the run's slots; none has ever been initialized, and
            // `offset` is within the bucket `ptr` points to.
            unsafe { ptr.add(offset).write(value) };
            offset += 1;
        }
        // Publish in reservation order. AcqRel on success chains the
        // predecessor's release into ours, so a reader that observes
        // `len > i` sees slot `i` initialized for every `i` below.
        let mut spins = 0u32;
        while self
            .len
            .compare_exchange_weak(first, first + N, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            spins += 1;
            if spins > 64 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        first
    }

    /// Pointer to `bucket`'s storage. Exactly one reserved slot per bucket
    /// has offset 0: the writer holding it (`allocates`) is the bucket's
    /// sole allocator; every other writer (and every reader, via the `len`
    /// bound) acquires the pointer it releases.
    fn bucket_ptr(&self, bucket: usize, allocates: bool) -> *mut T {
        if allocates {
            let mut chunk: Vec<T> = Vec::with_capacity(bucket_capacity(bucket));
            let p = chunk.as_mut_ptr();
            std::mem::forget(chunk);
            self.spine[bucket].store(p, Ordering::Release);
            return p;
        }
        let mut spins = 0u32;
        loop {
            let p = self.spine[bucket].load(Ordering::Acquire);
            if !p.is_null() {
                return p;
            }
            spins += 1;
            if spins > 64 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Approximate heap bytes held by the arena (for memory reporting).
    pub fn heap_bytes(&self) -> usize {
        let len = self.len();
        if len == 0 {
            return 0;
        }
        let (last_bucket, _) = locate(len - 1);
        (0..=last_bucket)
            .map(|b| bucket_capacity(b) * std::mem::size_of::<T>())
            .sum()
    }
}

impl<T> Drop for AppendArena<T> {
    fn drop(&mut self) {
        let len = *self.len.get_mut();
        debug_assert_eq!(len, *self.reserved.get_mut());
        for bucket in 0..SPINE {
            let ptr = *self.spine[bucket].get_mut();
            if ptr.is_null() {
                continue;
            }
            let cap = bucket_capacity(bucket);
            let start: usize = (0..bucket).map(bucket_capacity).sum();
            let inited = len.saturating_sub(start).min(cap);
            // SAFETY: we own the buckets; `inited` slots were written.
            unsafe {
                drop(Vec::from_raw_parts(ptr, inited, cap));
            }
        }
    }
}

// SAFETY: the arena hands out &T only; concurrent pushes are serialized by
// the reservation counter (disjoint slots) and the in-order publication.
unsafe impl<T: Send + Sync> Send for AppendArena<T> {}
unsafe impl<T: Send + Sync> Sync for AppendArena<T> {}

impl<T> Default for AppendArena<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locate_is_monotone_and_dense() {
        let mut prev = locate(0);
        assert_eq!(prev, (0, 0));
        for i in 1..100_000usize {
            let cur = locate(i);
            if cur.0 == prev.0 {
                assert_eq!(cur.1, prev.1 + 1, "index {i}");
            } else {
                assert_eq!(cur.0, prev.0 + 1, "index {i}");
                assert_eq!(cur.1, 0, "index {i}");
                assert_eq!(prev.1, bucket_capacity(prev.0) - 1, "index {i}");
            }
            prev = cur;
        }
    }

    #[test]
    fn push_and_get_roundtrip() {
        let arena = AppendArena::new();
        for i in 0..10_000usize {
            let idx = arena.push(i * 3);
            assert_eq!(idx, i);
        }
        assert_eq!(arena.len(), 10_000);
        for i in 0..10_000usize {
            assert_eq!(*arena.get(i), i * 3);
        }
    }

    /// Runs keep their slots consecutive across bucket boundaries (the
    /// first is at index 64), see their own first index, and interleave
    /// with single pushes.
    #[test]
    fn push_run_is_consecutive_across_buckets() {
        let arena = AppendArena::new();
        let mut expect = 0usize;
        while expect < 3_000 {
            let first = arena.push_run(|first| [first, first + 1, first + 2]);
            assert_eq!(first, expect);
            expect += 3;
            assert_eq!(arena.push(expect), expect);
            expect += 1;
            assert_eq!(
                arena.push_run(|first| std::array::from_fn::<_, 7, _>(|k| first + k)),
                expect
            );
            expect += 7;
        }
        assert_eq!(arena.len(), expect);
        for i in 0..expect {
            assert_eq!(*arena.get(i), i);
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let arena: AppendArena<u32> = AppendArena::new();
        arena.push(7);
        arena.get(1);
    }

    #[test]
    fn drop_runs_destructors() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        {
            let arena = AppendArena::new();
            for _ in 0..500 {
                arena.push(D);
            }
        }
        assert_eq!(DROPS.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn heap_bytes_grows() {
        let arena: AppendArena<u64> = AppendArena::new();
        assert_eq!(arena.heap_bytes(), 0);
        arena.push(1);
        let one = arena.heap_bytes();
        assert!(one >= 64 * 8);
        for i in 0..1000 {
            arena.push(i);
        }
        assert!(arena.heap_bytes() > one);
    }

    #[test]
    fn concurrent_readers_with_single_writer() {
        use std::sync::Arc;
        let arena = Arc::new(AppendArena::<usize>::new());
        let stop = Arc::new(AtomicUsize::new(0));
        let mut readers = Vec::new();
        for _ in 0..3 {
            let a = Arc::clone(&arena);
            let s = Arc::clone(&stop);
            readers.push(std::thread::spawn(move || {
                while s.load(Ordering::Relaxed) == 0 {
                    let len = a.len();
                    if len > 0 {
                        // every published slot must hold its own index
                        let i = len / 2;
                        assert_eq!(*a.get(i), i);
                    }
                }
            }));
        }
        for i in 0..200_000usize {
            arena.push(i);
        }
        stop.store(1, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
    }

    /// Many writers racing on reservations: every index is handed out once,
    /// every published slot is initialized, and readers never observe a
    /// torn prefix.
    #[test]
    fn concurrent_writers_publish_in_order() {
        use std::sync::Arc;
        const WRITERS: usize = 4;
        const PER: usize = 50_000;
        let arena = Arc::new(AppendArena::<usize>::new());
        let stop = Arc::new(AtomicUsize::new(0));
        let reader = {
            let a = Arc::clone(&arena);
            let s = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut seen = 0;
                while s.load(Ordering::Relaxed) == 0 {
                    let len = a.len();
                    if len == seen {
                        // Nothing new: give the core to the writer whose
                        // turn it is to publish (as `push`'s wait does).
                        std::thread::yield_now();
                        continue;
                    }
                    seen = len;
                    // Slots hold writer-tagged values; all must be
                    // readable (i.e. initialized) up to len.
                    assert!(*a.get(len - 1) < WRITERS * PER + WRITERS);
                }
            })
        };
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let a = Arc::clone(&arena);
                std::thread::spawn(move || {
                    let mut indices = Vec::with_capacity(PER);
                    for i in 0..PER {
                        indices.push(a.push(w * PER + i));
                    }
                    indices
                })
            })
            .collect();
        let mut all: Vec<usize> = Vec::new();
        for w in writers {
            all.extend(w.join().unwrap());
        }
        stop.store(1, Ordering::Relaxed);
        reader.join().unwrap();
        all.sort_unstable();
        assert_eq!(all.len(), WRITERS * PER);
        for (want, got) in all.iter().enumerate() {
            assert_eq!(want, *got, "reservation skipped or duplicated an index");
        }
        assert_eq!(arena.len(), WRITERS * PER);
    }

    /// Writers racing runs of different lengths: every run's slots are
    /// consecutive and initialized by the time `len` covers them, and no
    /// index is handed out twice. Each writer doubles as a reader of the
    /// newest published slot (a dedicated spinning reader on top of four
    /// writers only adds to the publication convoy on a 2-core box).
    #[test]
    fn concurrent_run_writers_publish_whole_runs() {
        use std::sync::Arc;
        const WRITERS: usize = 4;
        const PER: usize = 5_000;
        let arena = Arc::new(AppendArena::<(usize, usize)>::new());
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let a = Arc::clone(&arena);
                std::thread::spawn(move || {
                    let mut slots = 0usize;
                    for i in 0..PER {
                        if (i + w) % 2 == 0 {
                            a.push_run(|f| [(f, f), (f, f + 1)]);
                            slots += 2;
                        } else {
                            a.push_run(|f| [(f, f), (f, f + 1), (f, f + 2)]);
                            slots += 3;
                        }
                        // Each slot holds (its run's first index, its own
                        // index); a published slot is never torn or blank.
                        let len = a.len();
                        let (first, own) = *a.get(len - 1);
                        assert_eq!(own, len - 1);
                        assert!(first <= own && own - first < 3);
                    }
                    slots
                })
            })
            .collect();
        let total: usize = writers.into_iter().map(|w| w.join().unwrap()).sum();
        assert_eq!(arena.len(), total);
        for i in 0..total {
            assert_eq!(arena.get(i).1, i, "slot {i} written by another run");
        }
    }
}
