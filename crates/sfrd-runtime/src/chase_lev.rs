//! Chase-Lev dynamic circular work-stealing deque.
//!
//! The classic algorithm (Chase & Lev, SPAA '05) with the C11 memory
//! orderings of Lê, Pop, Cohen & Petri (PPoPP '13): the owner pushes and
//! pops at `bottom` fence-free except on the last-element race, where owner
//! and stealers arbitrate with a sequentially-consistent CAS on `top`;
//! stealers take from the `top` (FIFO) end. All atomics go through the
//! [`crate::sync`] facade, so the same code is driven through thousands of
//! interleavings by the `cfg(sfrd_model)` model checker (see
//! `tests/model_deque.rs`), checking the WorkStealing.tla invariants: no
//! lost task (W1), no double execution (W2), LIFO-local/FIFO-steal (W3),
//! and bounded stealing (W6 — a thief's CAS fails only when another thread
//! made progress).
//!
//! # Buffer reclamation
//!
//! When the owner grows the buffer it cannot free the old one: a thief may
//! hold a pointer into it between loading `buf` and reading the slot. So it
//! frees none before the deque drops. A grown-out buffer goes on the
//! owner's private `retired` list, which needs no synchronization, and a
//! thief may read a stale buffer's slot safely: the slot still holds the
//! copy the owner made, and the CAS on `top` decides whether that copy is
//! the thief's. Each buffer doubles the one before it, so the retired
//! buffers together are smaller than the live one: keeping them at most
//! doubles the deque's footprint, and a steal needs no protocol beyond its
//! CAS.

use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::mem::MaybeUninit;
use std::sync::Arc;

use crate::sync::{fence, AtomicIsize, AtomicPtr, Ordering};

/// Outcome of a steal attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Steal<T> {
    /// The queue was observed empty.
    Empty,
    /// One task was stolen.
    Success(T),
    /// A CAS was lost to a concurrent pop/steal; retrying may succeed.
    Retry,
}

impl<T> Steal<T> {
    /// Stolen value, if any.
    pub fn success(self) -> Option<T> {
        match self {
            Steal::Success(t) => Some(t),
            _ => None,
        }
    }
}

struct Buffer<T> {
    cap: usize,
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
}

impl<T> Buffer<T> {
    fn alloc(cap: usize) -> *mut Buffer<T> {
        debug_assert!(cap.is_power_of_two());
        let slots = (0..cap)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Box::into_raw(Box::new(Buffer { cap, slots }))
    }

    #[inline]
    unsafe fn slot(&self, i: isize) -> *mut MaybeUninit<T> {
        self.slots[(i as usize) & (self.cap - 1)].get()
    }

    #[inline]
    unsafe fn write(&self, i: isize, v: MaybeUninit<T>) {
        self.slot(i).write(v);
    }

    #[inline]
    unsafe fn read(&self, i: isize) -> MaybeUninit<T> {
        self.slot(i).read()
    }
}

struct Inner<T> {
    bottom: AtomicIsize,
    top: AtomicIsize,
    buf: AtomicPtr<Buffer<T>>,
    /// Grown-out buffers, freed on drop; owner-only (the single `Worker`),
    /// hence UnsafeCell.
    retired: UnsafeCell<Vec<*mut Buffer<T>>>,
}

unsafe impl<T: Send> Send for Inner<T> {}
unsafe impl<T: Send> Sync for Inner<T> {}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        // Sole owner at this point; plain loads suffice.
        let b = *self.bottom.get_mut();
        let t = *self.top.get_mut();
        let buf = *self.buf.get_mut();
        unsafe {
            for i in t..b {
                drop((*buf).read(i).assume_init());
            }
            drop(Box::from_raw(buf));
            for p in (*self.retired.get()).drain(..) {
                drop(Box::from_raw(p));
            }
        }
    }
}

/// The owner end of a Chase-Lev deque: LIFO push/pop, not `Sync`.
pub struct Worker<T> {
    inner: Arc<Inner<T>>,
    /// Owner methods assume a single caller thread; suppress `Sync`.
    _not_sync: PhantomData<std::cell::Cell<()>>,
}

unsafe impl<T: Send> Send for Worker<T> {}

/// A thief's handle to some worker's deque: FIFO steals, clone freely.
pub struct Stealer<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for Stealer<T> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

const MIN_CAP: usize = 32;

impl<T> Default for Worker<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Worker<T> {
    /// New empty deque with the default initial capacity.
    pub fn new() -> Self {
        Self::with_capacity(MIN_CAP)
    }

    /// New empty deque whose buffer starts at `cap` (rounded up to a power
    /// of two) slots.
    pub fn with_capacity(cap: usize) -> Self {
        let cap = cap.next_power_of_two().max(2);
        Self {
            inner: Arc::new(Inner {
                bottom: AtomicIsize::new(0),
                top: AtomicIsize::new(0),
                buf: AtomicPtr::new(Buffer::alloc(cap)),
                retired: UnsafeCell::new(Vec::new()),
            }),
            _not_sync: PhantomData,
        }
    }

    /// A stealer handle for this deque.
    pub fn stealer(&self) -> Stealer<T> {
        Stealer {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Number of queued tasks (racy snapshot).
    pub fn len(&self) -> usize {
        let b = self.inner.bottom.load(Ordering::Relaxed);
        let t = self.inner.top.load(Ordering::Relaxed);
        (b - t).max(0) as usize
    }

    /// Is the deque (racily) empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Push onto the owner (hot) end. Never blocks; grows the buffer when
    /// full. The `Release` store on `bottom` publishes the slot write to
    /// stealers (paired with their `Acquire` load of `bottom`).
    pub fn push(&self, v: T) {
        let inner = &*self.inner;
        let b = inner.bottom.load(Ordering::Relaxed);
        let t = inner.top.load(Ordering::Acquire);
        let mut buf = inner.buf.load(Ordering::Relaxed);
        unsafe {
            if b - t >= (*buf).cap as isize {
                buf = self.grow(b, t);
            }
            (*buf).write(b, MaybeUninit::new(v));
        }
        inner.bottom.store(b + 1, Ordering::Release);
    }

    /// Pop from the owner (hot) end, LIFO. Fence-free except for the single
    /// SeqCst fence arbitrating the last-element race with stealers, plus the
    /// SeqCst CAS on `top` when exactly one element remains.
    pub fn pop(&self) -> Option<T> {
        let inner = &*self.inner;
        let b = inner.bottom.load(Ordering::Relaxed) - 1;
        let buf = inner.buf.load(Ordering::Relaxed);
        inner.bottom.store(b, Ordering::Relaxed);
        // Dekker: my bottom decrement vs a thief's top increment. After this
        // fence, either the thief sees the decrement (and backs off the last
        // element) or I see its top increment (and concede via the CAS).
        fence(Ordering::SeqCst);
        let t = inner.top.load(Ordering::Relaxed);
        if t <= b {
            // Non-empty. The slot read is safe: stealers never touch index b
            // while top <= b, and the CAS below arbitrates the t == b case.
            let v = unsafe { (*buf).read(b) };
            if t == b {
                // Last element: race a pretending thief by advancing top.
                let won = inner
                    .top
                    .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok();
                inner.bottom.store(b + 1, Ordering::Relaxed);
                if won {
                    Some(unsafe { v.assume_init() })
                } else {
                    // Lost to a thief; it owns the value. `v` is a
                    // MaybeUninit copy and is dropped without running
                    // T's destructor, so no double drop.
                    None
                }
            } else {
                Some(unsafe { v.assume_init() })
            }
        } else {
            // Empty; restore bottom.
            inner.bottom.store(b + 1, Ordering::Relaxed);
            None
        }
    }

    /// The owner's `bottom` index: every later push lands at or above it
    /// until a pop takes the deque below it again.
    pub fn bottom(&self) -> isize {
        self.inner.bottom.load(Ordering::Relaxed)
    }

    /// [`Worker::pop`], but only an entry at index `floor` or above: the
    /// entries pushed since `bottom()` read `floor`. Only the owner moves
    /// `bottom`, so the check cannot race.
    pub fn pop_above(&self, floor: isize) -> Option<T> {
        if self.inner.bottom.load(Ordering::Relaxed) <= floor {
            return None;
        }
        self.pop()
    }

    /// Double the buffer, copying live slots `t..b`, and retire the old
    /// one until the deque drops (see the module docs).
    unsafe fn grow(&self, b: isize, t: isize) -> *mut Buffer<T> {
        let inner = &*self.inner;
        let old = inner.buf.load(Ordering::Relaxed);
        let new = Buffer::alloc((*old).cap * 2);
        for i in t..b {
            (*new).write(i, (*old).read(i));
        }
        inner.buf.store(new, Ordering::Release);
        (*inner.retired.get()).push(old);
        new
    }
}

impl<T> Stealer<T> {
    /// Number of queued tasks (racy snapshot).
    pub fn len(&self) -> usize {
        let t = self.inner.top.load(Ordering::Relaxed);
        let b = self.inner.bottom.load(Ordering::Relaxed);
        (b - t).max(0) as usize
    }

    /// Is the deque (racily) empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Steal from the cold (FIFO) end. `Retry` means the CAS on `top` was
    /// lost to the owner's last-element pop or another thief — i.e. someone
    /// else made progress (the W6 bounded-stealing argument).
    pub fn steal(&self) -> Steal<T> {
        let inner = &*self.inner;
        let t = inner.top.load(Ordering::Acquire);
        // Dekker vs the owner's pop: order my top load before my bottom
        // load so an owner taking the last element is observed.
        fence(Ordering::SeqCst);
        let b = inner.bottom.load(Ordering::Acquire);
        if t >= b {
            return Steal::Empty;
        }
        // Acquire pairs with `grow`'s Release store: a new buffer is seen
        // with its copied slots. A stale one is still allocated (retired
        // buffers live until the deque drops).
        let buf = inner.buf.load(Ordering::Acquire);
        // Speculative read: only valid to *use* if the CAS wins; a lost CAS
        // discards the MaybeUninit copy without dropping T.
        let v = unsafe { (*buf).read(t) };
        let won = inner
            .top
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
            .is_ok();
        if won {
            Steal::Success(unsafe { v.assume_init() })
        } else {
            Steal::Retry
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_owner_fifo_thief() {
        let w = Worker::new();
        w.push(1);
        w.push(2);
        w.push(3);
        assert_eq!(w.pop(), Some(3));
        let s = w.stealer();
        assert_eq!(s.steal(), Steal::Success(1));
        assert_eq!(w.pop(), Some(2));
        assert_eq!(w.pop(), None);
        assert_eq!(s.steal(), Steal::Empty);
    }

    #[test]
    fn pop_above_leaves_older_entries() {
        let w = Worker::new();
        w.push(1);
        let floor = w.bottom();
        w.push(2);
        w.push(3);
        assert_eq!(w.pop_above(floor), Some(3));
        assert_eq!(w.pop_above(floor), Some(2));
        assert_eq!(w.pop_above(floor), None);
        assert_eq!(w.pop(), Some(1));
        // A thief took the entry above the floor: nothing left to pop.
        w.push(4);
        let floor = w.bottom() - 1;
        assert_eq!(w.stealer().steal(), Steal::Success(4));
        assert_eq!(w.pop_above(floor), None);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let w = Worker::with_capacity(2);
        for i in 0..1000 {
            w.push(i);
        }
        assert_eq!(w.len(), 1000);
        for i in (0..1000).rev() {
            assert_eq!(w.pop(), Some(i));
        }
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn drop_releases_queued_items() {
        let w = Worker::new();
        for i in 0..100 {
            w.push(Arc::new(i));
        }
        let probe = Arc::new(0usize);
        w.push(Arc::clone(&probe));
        drop(w);
        assert_eq!(Arc::strong_count(&probe), 1);
    }

    #[test]
    fn threaded_exactly_once() {
        const N: u64 = 1 << 14;
        const THIEVES: usize = 3;
        let w = Worker::new();
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let handles: Vec<_> = (0..THIEVES)
            .map(|_| {
                let s = w.stealer();
                let done = Arc::clone(&done);
                std::thread::spawn(move || {
                    let mut sum = 0u64;
                    let mut count = 0u64;
                    loop {
                        match s.steal() {
                            Steal::Success(v) => {
                                sum += v;
                                count += 1;
                            }
                            Steal::Retry => {}
                            Steal::Empty => {
                                if done.load(std::sync::atomic::Ordering::Acquire) {
                                    break;
                                }
                                std::thread::yield_now();
                            }
                        }
                    }
                    (sum, count)
                })
            })
            .collect();
        let mut sum = 0u64;
        let mut count = 0u64;
        for i in 0..N {
            w.push(i);
            if i % 3 == 0 {
                if let Some(v) = w.pop() {
                    sum += v;
                    count += 1;
                }
            }
        }
        while let Some(v) = w.pop() {
            sum += v;
            count += 1;
        }
        done.store(true, std::sync::atomic::Ordering::Release);
        loop {
            // Drain anything pushed-back nothing more is pushed; just let
            // stealers observe Empty and exit.
            if w.is_empty() {
                break;
            }
        }
        for h in handles {
            let (s, c) = h.join().unwrap();
            sum += s;
            count += c;
        }
        assert_eq!(count, N, "every pushed task taken exactly once");
        assert_eq!(sum, N * (N - 1) / 2, "task payloads intact");
    }
}
