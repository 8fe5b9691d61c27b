//! The strand-event batch pipeline: per-strand access buffering.
//!
//! §4 of the paper measures that the dominant `full`-configuration cost is
//! the per-access synchronization on the shadow table — one lock
//! acquisition per instrumented read/write. The batch pipeline attacks
//! that volume from the runtime side: instead of handing every access to
//! the detector immediately, [`Batched`] accumulates a strand's accesses
//! as pending entries and hands them to the detector's
//! [`TaskHooks::on_access_batch`] hook in one call, as a borrowed slice
//! with the counts the filter dropped since the last call,
//!
//! * at every **strand boundary** (`spawn`/`create`/`sync`/`get`/task
//!   end/task return) — the dag position is about to change, so pending
//!   accesses must be checked at the position they were issued from; and
//! * at a **size cap**, so an access-heavy strand cannot defer unbounded
//!   work.
//!
//! Soundness: all accesses in a batch were issued at one dag position
//! (the filter and the flush points guarantee it), so flushing them
//! together is just executing the same accesses under an adjacent legal
//! schedule of the same dag — and determinacy races are a property of the
//! dag, not of the schedule.
//!
//! Within a batch the filter **write-combines**: a repeat access to an
//! address already buffered (or already flushed at this position) with the
//! same or weaker kind is dropped — it could neither change the access
//! history nor produce a new race. A read followed by a first write to the
//! same address keeps both entries in program order.
//!
//! The write-combining filter is **one table per thread**, not one per
//! strand. A boundary empties a strand's filter, and a strand is only ever
//! suspended at a boundary (or in a blocked `get`/`sync`, just before
//! one), so a strand that is not running has nothing in its filter worth
//! keeping. Each entry is stamped with the recording batch's *position
//! epoch*: a number never handed out twice, by any thread, that a strand
//! takes at its first access at a position. A boundary drops the epoch
//! rather than taking a fresh one — no way can carry a stamp no access
//! wrote — so a strand that spawns or creates without accessing takes
//! none. A stamp that is not the running batch's epoch reads as an empty
//! way, so strands that share a thread — nested in a blocked join, or one
//! after another — can only evict each other's entries, never filter each
//! other's accesses.
//!
//! The pending entries live on **one stack per thread** too. A batch
//! notes the stack's height when it takes its epoch, and its entries run
//! from there to the top; a strand that has not accessed since its last
//! boundary holds none, and its birth and death touch no storage at all.
//! The running strand's entries are the top ones because strands nest
//! strictly on a thread: a strand never migrates (a task runs start to
//! end on the thread that claimed it, and is born and joined holding no
//! entries), and a blocked `get`/`sync` runs other jobs to completion on
//! top of its own frame, each flushing at its task end. So the entries a
//! blocked strand left pending are on top again when it resumes.
//! Recording into a batch from inside one of its thread's deliveries
//! panics: the delivered entries are lent out of the stack, which must
//! not move under them.
//!
//! The table has [`FILTER_WAYS`] = 16 384 ways, [`FILTER_BYTES`] = 256 KiB
//! per thread: enough for the working set one strand re-reads between two
//! boundaries on the benchmark's inputs. An sw block's 32 column prefixes
//! stay live while its row prefixes stream through them, and a second
//! pass over the block admits 2 % of its accesses at 16 384 ways against
//! 42 % at 4 096. The table is static TLS, so every thread of the process
//! carries it from birth, whether it records or not, and no heap census
//! counts it.

use std::cell::Cell;
use std::mem::ManuallyDrop;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::hooks::TaskHooks;

/// One buffered shared-memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchedAccess {
    /// Accessed address.
    pub addr: u64,
    /// Write (`true`) or read (`false`).
    pub is_write: bool,
}

/// log2 of the filter's ways.
const WAY_BITS: u32 = 14;

/// Ways of a thread's write-combining filter (direct-mapped): 16 384
/// ways of 16 bytes, 256 KiB per thread.
pub const FILTER_WAYS: usize = 1 << WAY_BITS;

/// Bytes of one thread's filter: static TLS that every thread carries
/// from its creation, outside any heap census.
pub const FILTER_BYTES: usize = FILTER_WAYS * std::mem::size_of::<Cell<(u64, u64)>>();

/// A strand's pending entries are delivered once they are this many.
pub const DEFAULT_BATCH_CAP: usize = 512;

/// Epochs a thread claims from [`EPOCH_BLOCKS`] at a time.
const EPOCH_BLOCK: u64 = 1 << 16;

/// A batch's stamp before its first access at a position. No way ever
/// holds it (a way holds 0 until a batch with an epoch writes it, and an
/// epoch would have to reach 2^63 − 1), so a batch without an epoch misses
/// every way and takes its epoch only on the miss path: a repeat costs no
/// extra test.
const NO_EPOCH: u64 = !1;

/// The first epoch of the next unclaimed block. Epoch 0 is never handed
/// out: it is the stamp of a way no batch has used.
static EPOCH_BLOCKS: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's write-combining filter: `(addr + 1, epoch << 1 |
    /// wrote)` per way. Const-initialised with no destructor, so `with`
    /// is a plain thread-local address: no lazy set-up, no state check.
    static FILTER: [Cell<(u64, u64)>; FILTER_WAYS] =
        const { [const { Cell::new((0, 0)) }; FILTER_WAYS] };
    /// `(next, end)` of this thread's block of epochs.
    static EPOCHS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    /// This thread's entry stack: const-initialised and destructor-free
    /// like `FILTER`, so a push reaches it without a state check.
    static ENTRIES: EntryStack = const { EntryStack::empty() };
    /// Frees `ENTRIES`' array when the thread exits. Touched once, when
    /// the array is first allocated, which registers the destructor.
    static ENTRIES_OWNER: FreeEntriesAtExit = const { FreeEntriesAtExit };
}

/// A position epoch no batch has held before, pre-shifted past the
/// `wrote` bit. One `fetch_add` per [`EPOCH_BLOCK`] epochs; `Relaxed`,
/// since it publishes no other data and the read-modify-write alone hands
/// each block out once.
#[inline]
fn fresh_stamp() -> u64 {
    EPOCHS.with(|e| {
        let (mut next, mut end) = e.get();
        if next == end {
            next = EPOCH_BLOCKS.fetch_add(EPOCH_BLOCK, Ordering::Relaxed);
            end = next + EPOCH_BLOCK;
        }
        e.set((next + 1, end));
        next << 1
    })
}

/// Fibonacci hash of the *word index*: the top bits of `word × 2⁶⁴/φ`. An
/// instrumented cell is one 8-byte word, so a unit-stride scan advances
/// the way by the golden-ratio rotation, which spreads any arithmetic
/// progression of words about evenly. Lower bits of the product, or the
/// byte address as the multiplicand, rotate by a near-rational step and
/// fold scans onto few ways.
#[inline]
fn way(addr: u64) -> usize {
    ((addr >> 3).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - WAY_BITS)) as usize
}

/// The pending entries of every batch recording on one thread, as one
/// stack (module docs): the raw parts of a `Vec<BatchedAccess>` in
/// `Cell`s, so that the thread-local needs no destructor.
struct EntryStack {
    ptr: Cell<NonNull<BatchedAccess>>,
    len: Cell<usize>,
    cap: Cell<usize>,
    /// The array's capacity while a flush lends entries out, else 0. `cap`
    /// then reads `len`, so a push from inside the flush reaches
    /// [`grow`](Self::grow), which refuses to move the lent entries.
    lent: Cell<usize>,
}

impl EntryStack {
    const fn empty() -> Self {
        Self {
            ptr: Cell::new(NonNull::dangling()),
            len: Cell::new(0),
            cap: Cell::new(0),
            lent: Cell::new(0),
        }
    }

    #[inline]
    fn push(&self, a: BatchedAccess) {
        let len = self.len.get();
        if len == self.cap.get() {
            self.grow();
        }
        // SAFETY: `ptr` is an array of `cap` entries and `len < cap`.
        unsafe { self.ptr.get().as_ptr().add(len).write(a) };
        self.len.set(len + 1);
    }

    #[cold]
    #[inline(never)]
    fn grow(&self) {
        assert_eq!(
            self.lent.get(),
            0,
            "an access was recorded from inside a batch flush on the same thread"
        );
        if self.cap.get() == 0 {
            // Past the thread's destructors the array leaks with the thread.
            let _ = ENTRIES_OWNER.try_with(|_| ());
        }
        self.with_vec(|v| v.reserve(DEFAULT_BATCH_CAP));
    }

    /// `f` on the stack as the `Vec` it is (cold paths only).
    fn with_vec<R>(&self, f: impl FnOnce(&mut Vec<BatchedAccess>) -> R) -> R {
        // SAFETY: the three cells hold the raw parts of a `Vec` this thread
        // owns (or of `Vec::new()`), and `ManuallyDrop` keeps it owned by
        // the cells, which take its parts back below.
        let mut v = ManuallyDrop::new(unsafe {
            Vec::from_raw_parts(self.ptr.get().as_ptr(), self.len.get(), self.cap.get())
        });
        let out = f(&mut v);
        self.ptr
            .set(NonNull::new(v.as_mut_ptr()).expect("a Vec's pointer is never null"));
        self.len.set(v.len());
        self.cap.set(v.capacity());
        out
    }

    /// Lend the entries from `base` up to the top to `f`, then pop them.
    fn lend<R>(&self, base: usize, f: impl FnOnce(&[BatchedAccess]) -> R) -> R {
        /// Pops the lent entries and gives the capacity back, also when
        /// `f` unwinds.
        struct Return<'a>(&'a EntryStack, usize);
        impl Drop for Return<'_> {
            fn drop(&mut self) {
                let stack = self.0;
                stack.cap.set(stack.lent.replace(0));
                stack.len.set(self.1);
            }
        }
        let len = self.len.get();
        assert!(base <= len && self.lent.get() == 0);
        self.lent.set(self.cap.replace(len));
        let _give_back = Return(self, base);
        // SAFETY: entries below `len` are initialised, and until `Return`
        // runs nothing writes or frees them: a push goes to `grow`, which
        // panics, and `pop` leaves a lending stack alone.
        f(unsafe { std::slice::from_raw_parts(self.ptr.get().as_ptr().add(base), len - base) })
    }

    /// Pop the entries from `base` up, unless they are lent.
    fn pop(&self, base: usize) {
        if self.lent.get() == 0 {
            self.len.set(self.len.get().min(base));
        }
    }
}

/// Frees the thread's [`EntryStack`] array when the thread exits.
struct FreeEntriesAtExit;

impl Drop for FreeEntriesAtExit {
    fn drop(&mut self) {
        let _ = ENTRIES.try_with(|stack| drop(stack.with_vec(std::mem::take)));
    }
}

/// A strand's pending accesses (on its thread's entry stack) and the epoch
/// of its current dag position.
///
/// A batch with pending entries must stay on the thread that recorded
/// them, and batches on one thread must nest: record, flush and drop one
/// only while no batch above it holds entries (module docs). `Batched`
/// keeps both rules whenever the runtime nests strands as both runtimes
/// do.
#[derive(Debug)]
pub struct AccessBatch {
    /// The entry stack's height when the batch took its epoch: its
    /// entries run from here to the top. Meaningless while it has no
    /// epoch, when it holds none.
    base: usize,
    /// The current position's epoch, shifted left one: the stamp this
    /// batch's filter entries carry, bit 0 free for an entry's `wrote`
    /// flag. [`NO_EPOCH`] until the first access at the position: a
    /// boundary drops it; a size-cap flush does not (the position is
    /// unchanged, so already-flushed accesses still cover repeats).
    epoch: u64,
    /// Accesses admitted and combined away; under [`Batched`], those of
    /// the spawned strands the strand's syncs joined too.
    recorded: u64,
    filtered: u64,
    /// Filtered accesses per kind since the last flush, so a batch-aware
    /// sink can keep program-characteristic counters (Fig. 3 reads/writes)
    /// exact even though filtered repeats never reach it as entries.
    pending_filtered: (u64, u64),
}

impl Default for AccessBatch {
    fn default() -> Self {
        Self::new()
    }
}

impl AccessBatch {
    /// Empty batch: no entries, no epoch yet, no storage.
    pub const fn new() -> Self {
        Self {
            base: 0,
            epoch: NO_EPOCH,
            recorded: 0,
            filtered: 0,
            pending_filtered: (0, 0),
        }
    }

    /// Buffer one access. Returns `false` when the access was
    /// write-combined away (a repeat at this position with the same or
    /// weaker kind).
    #[inline]
    pub fn record(&mut self, addr: u64, is_write: bool) -> bool {
        let key = addr.wrapping_add(1);
        let repeat = FILTER.with(|filter| {
            let epoch = self.epoch;
            let slot = &filter[way(addr)];
            let (held_key, stamp) = slot.get();
            // Another epoch's stamp reads as an empty way.
            let held = held_key == key && stamp & !1 == epoch;
            // Only this address's own entry lends its `wrote` flag: an
            // access that evicts another address starts from "not
            // written", or the evictor's first write would be combined
            // away unseen.
            let wrote = held && stamp & 1 != 0;
            if held && (wrote || !is_write) {
                return true;
            }
            if epoch == NO_EPOCH {
                self.take_epoch();
            }
            slot.set((key, self.epoch | u64::from(wrote || is_write)));
            false
        });
        if repeat {
            self.filtered += 1;
            if is_write {
                self.pending_filtered.1 += 1;
            } else {
                self.pending_filtered.0 += 1;
            }
            return false;
        }
        self.recorded += 1;
        ENTRIES.with(|stack| stack.push(BatchedAccess { addr, is_write }));
        true
    }

    /// The first access at a position takes the position's epoch, and
    /// the batch's entries start at the stack's height.
    #[cold]
    #[inline(never)]
    fn take_epoch(&mut self) {
        self.epoch = fresh_stamp();
        self.base = ENTRIES.with(|stack| stack.len.get());
    }

    /// Entries held, once the batch has its epoch: `Batched`'s cap check
    /// after an admitted access, without [`len`](Self::len)'s epoch test.
    #[inline]
    fn held(&self) -> usize {
        ENTRIES.with(|stack| stack.len.get()) - self.base
    }

    /// Any filtered accesses not yet delivered?
    fn has_pending_filtered(&self) -> bool {
        self.pending_filtered != (0, 0)
    }

    /// Entries awaiting flush.
    #[inline]
    pub fn len(&self) -> usize {
        if self.epoch == NO_EPOCH {
            0
        } else {
            self.held()
        }
    }

    /// Nothing buffered?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hand the pending entries and filtered counts to `f`, and drop them.
    fn deliver<R>(&mut self, f: impl FnOnce(&[BatchedAccess], (u64, u64)) -> R) -> R {
        let filtered = std::mem::take(&mut self.pending_filtered);
        if self.epoch == NO_EPOCH {
            return f(&[], filtered);
        }
        ENTRIES.with(|stack| stack.lend(self.base, |entries| f(entries, filtered)))
    }

    /// Invalidate the position-scoped filter: O(1), the batch drops its
    /// epoch and every entry it stamped goes stale. The next access takes
    /// a fresh one. Only a batch with no entries pending may clear.
    pub fn clear_filter(&mut self) {
        debug_assert!(self.is_empty(), "filter cleared with entries pending");
        self.epoch = NO_EPOCH;
    }

    /// `(recorded, filtered)`: accesses this batch admitted and combined
    /// away (under [`Batched`], with those of the joined spawned strands).
    pub fn stats(&self) -> (u64, u64) {
        (self.recorded, self.filtered)
    }
}

impl Drop for AccessBatch {
    fn drop(&mut self) {
        // Dropped unflushed (a panicking task's strand, or a probe): pop
        // the entries, which are on top when batches nest.
        if self.epoch != NO_EPOCH {
            let _ = ENTRIES.try_with(|stack| stack.pop(self.base));
        }
    }
}

/// Aggregate batch-pipeline counters of a [`Batched`] wrapper.
#[derive(Debug, Default)]
struct BatchCounters {
    flushes: AtomicU64,
    recorded: AtomicU64,
    filtered: AtomicU64,
}

/// Snapshot of a [`Batched`] wrapper's pipeline counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Batch flushes (boundary + size-cap).
    pub flushes: u64,
    /// Accesses buffered (admitted past the filter).
    pub recorded: u64,
    /// Accesses write-combined away by the per-position filter.
    pub filtered: u64,
}

/// Wrap any detector so accesses flow through the batch pipeline.
///
/// `Batched<H>` buffers `on_access` into the strand's [`AccessBatch`] and
/// delivers the buffered entries, as a slice, via `H`'s
/// [`TaskHooks::on_access_batch`] at strand boundaries and at the size
/// cap. Detectors that don't override the batch hook get the default
/// loop and behave exactly as if unwrapped (minus filtered repeats);
/// detectors that do (sfrd-core's unified event sink) run the whole
/// batch through one shadow page cursor. A sink must not record into a
/// `Batched` from inside a delivery (that panics).
pub struct Batched<H> {
    inner: H,
    counters: BatchCounters,
}

impl<H> Batched<H> {
    /// Wrap `inner`, flushing at [`DEFAULT_BATCH_CAP`] pending accesses.
    pub fn new(inner: H) -> Self {
        Self {
            inner,
            counters: BatchCounters::default(),
        }
    }

    /// The wrapped detector.
    pub fn inner(&self) -> &H {
        &self.inner
    }

    /// Unwrap the detector (after the run; pending entries are gone with
    /// their strands by then).
    pub fn into_inner(self) -> H {
        self.inner
    }

    /// Aggregate pipeline counters, exact once the run is over. The root's
    /// and each future's strand add theirs at its task end; a spawned
    /// strand's travel with it to the sync that joins it and are added
    /// with its parent's. No per-task atomic: a spawned task's counts cost
    /// its parent three additions.
    pub fn stats(&self) -> BatchStats {
        BatchStats {
            flushes: self.counters.flushes.load(Ordering::Relaxed),
            recorded: self.counters.recorded.load(Ordering::Relaxed),
            filtered: self.counters.filtered.load(Ordering::Relaxed),
        }
    }
}

/// Strand of a [`Batched`] detector: the inner strand plus its batch.
pub struct BatchStrand<S> {
    inner: S,
    batch: AccessBatch,
    /// Flushes of this strand and of the spawned strands its syncs joined
    /// (whose admitted and filtered counts its batch's counters take in).
    flushes: u64,
    /// The root or a future: adds its totals to the wrapper's at task end.
    publishes: bool,
}

impl<S> BatchStrand<S> {
    /// The wrapped detector's strand.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Counts of this strand and the spawned strands joined into it.
    fn totals(&self) -> BatchStats {
        BatchStats {
            flushes: self.flushes,
            recorded: self.batch.recorded,
            filtered: self.batch.filtered,
        }
    }
}

impl<H: TaskHooks> Batched<H> {
    #[inline]
    fn flush(&self, s: &mut BatchStrand<H::Strand>) {
        // Deliver when entries are pending, or when only filtered counts
        // are (a cap flush delivered the entries but repeats kept
        // arriving) — the sink still needs those for its access counters.
        if !s.batch.is_empty() || s.batch.has_pending_filtered() {
            s.flushes += u64::from(!s.batch.is_empty());
            let inner = &mut s.inner;
            s.batch
                .deliver(|entries, filtered| self.inner.on_access_batch(inner, entries, filtered));
        }
    }

    /// A size-cap flush, out of line: inlined, the delivery made the
    /// access path too large to inline into the program, and the call
    /// cost every access about 2.5 ns.
    #[cold]
    #[inline(never)]
    fn cap_flush(&self, s: &mut BatchStrand<H::Strand>) {
        self.flush(s);
    }

    /// Boundary flush: deliver pending accesses, then invalidate the
    /// position-scoped filter (the strand's dag position changes next).
    fn boundary(&self, s: &mut BatchStrand<H::Strand>) {
        self.flush(s);
        s.batch.clear_filter();
    }

    fn strand(&self, inner: H::Strand, publishes: bool) -> BatchStrand<H::Strand> {
        BatchStrand {
            inner,
            batch: AccessBatch::new(),
            flushes: 0,
            publishes,
        }
    }
}

impl<H: TaskHooks> TaskHooks for Batched<H> {
    type Strand = BatchStrand<H::Strand>;

    fn root(&self) -> Self::Strand {
        self.strand(self.inner.root(), true)
    }

    fn on_spawn(&self, p: &mut Self::Strand) -> Self::Strand {
        self.boundary(p);
        self.strand(self.inner.on_spawn(&mut p.inner), false)
    }

    fn on_create(&self, p: &mut Self::Strand) -> Self::Strand {
        self.boundary(p);
        self.strand(self.inner.on_create(&mut p.inner), true)
    }

    fn on_sync(&self, s: &mut Self::Strand, children: Vec<Self::Strand>) {
        self.boundary(s);
        let children = children
            .into_iter()
            .map(|c| {
                debug_assert!(c.batch.is_empty(), "spawned strand ended unflushed");
                s.flushes += c.flushes;
                s.batch.recorded += c.batch.recorded;
                s.batch.filtered += c.batch.filtered;
                c.inner
            })
            .collect();
        self.inner.on_sync(&mut s.inner, children);
    }

    fn on_get(&self, s: &mut Self::Strand, done: &Self::Strand) {
        self.boundary(s);
        debug_assert!(done.batch.is_empty(), "future strand ended unflushed");
        self.inner.on_get(&mut s.inner, &done.inner);
    }

    fn on_task_end(&self, s: &mut Self::Strand) {
        self.boundary(s);
        if s.publishes {
            let t = s.totals();
            for (counter, n) in [
                (&self.counters.flushes, t.flushes),
                (&self.counters.recorded, t.recorded),
                (&self.counters.filtered, t.filtered),
            ] {
                if n != 0 {
                    counter.fetch_add(n, Ordering::Relaxed);
                }
            }
        }
        self.inner.on_task_end(&mut s.inner);
    }

    fn on_task_return(&self, p: &mut Self::Strand, c: &mut Self::Strand) {
        self.boundary(p);
        debug_assert!(c.batch.is_empty(), "returned strand ended unflushed");
        self.inner.on_task_return(&mut p.inner, &mut c.inner);
    }

    #[inline(always)]
    fn on_access(&self, s: &mut Self::Strand, addr: u64, is_write: bool) {
        if s.batch.record(addr, is_write) && s.batch.held() >= DEFAULT_BATCH_CAP {
            self.cap_flush(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::{Cx, NullHooks};
    use crate::parallel::Runtime;
    use parking_lot::Mutex;
    use std::sync::Arc;

    impl AccessBatch {
        /// Drop the pending entries and filtered counts, as a flush into a
        /// sink that keeps nothing would.
        fn discard(&mut self) {
            self.deliver(|_, _| ());
        }
    }

    /// The batch's pending entries, read off this thread's entry stack.
    fn pending(b: &AccessBatch) -> Vec<BatchedAccess> {
        ENTRIES.with(|stack| stack.with_vec(|v| v[v.len() - b.len()..].to_vec()))
    }

    /// `(len, cap)` of this thread's entry stack.
    fn stack() -> (usize, usize) {
        ENTRIES.with(|stack| (stack.len.get(), stack.cap.get()))
    }

    #[test]
    fn filter_write_combines() {
        let mut b = AccessBatch::new();
        assert!(b.record(8, false));
        assert!(!b.record(8, false), "repeat read combined");
        assert!(b.record(8, true), "first write kept after read");
        assert!(!b.record(8, true), "repeat write combined");
        assert!(!b.record(8, false), "read after write covered");
        let kinds: Vec<_> = pending(&b).iter().map(|a| (a.addr, a.is_write)).collect();
        assert_eq!(kinds, vec![(8, false), (8, true)], "program order kept");
        assert_eq!(b.pending_filtered, (2, 1));
        assert_eq!(b.stats(), (2, 3));
    }

    #[test]
    fn clear_filter_readmits() {
        let mut b = AccessBatch::new();
        assert!(b.record(8, true));
        b.discard();
        assert!(!b.record(8, true), "filter survives a cap flush");
        b.clear_filter();
        assert!(b.record(8, true), "boundary invalidates the filter");
        b.discard();
        assert!(!b.record(8, false), "a cap flush keeps the epoch");
    }

    /// `write A; read B; write B` at one position with A and B in one way:
    /// B's read evicts A's entry and must not take over its `wrote` flag,
    /// or B's first write never reaches the detector.
    #[test]
    fn an_evicting_read_does_not_inherit_the_evicted_write() {
        const A: u64 = 0x1000;
        let b_addr = (1..)
            .map(|k| A + 8 * k)
            .find(|&b| way(b) == way(A))
            .expect("finitely many ways");
        let mut b = AccessBatch::new();
        assert!(b.record(A, true));
        assert!(b.record(b_addr, false), "evicts A");
        assert!(b.record(b_addr, true), "B's first write is not a repeat");
        assert!(!b.record(b_addr, true), "its second is");
        assert!(!b.record(b_addr, false), "and its own write covers a read");
        assert_eq!(b.stats(), (3, 2));
    }

    /// Address of word `i` of one of a few disjoint arrays.
    fn cell(array: u64, i: u64) -> u64 {
        0x7f3a_5c00_1000 + (array << 20) + 8 * i
    }

    /// Record as `Batched` does, a cap flush delivering (here: dropping)
    /// the entries and keeping the position.
    fn record(b: &mut AccessBatch, addr: u64, is_write: bool) {
        if b.record(addr, is_write) && b.len() >= DEFAULT_BATCH_CAP {
            b.discard();
        }
    }

    /// Side of the benchmark's sw table (n = 192, so 193 × 193 cells).
    const SW_SIDE: u64 = 193;
    /// First row and column of sw's last and largest 32 × 32 block.
    const SW_LAST_BLOCK: u64 = 161;

    /// The accesses of sw's last block, in program order and all at one
    /// dag position (the block is one future's body): per cell the
    /// diagonal read, the row prefix, the stride-193 column prefix and
    /// the write.
    fn sw_block(b: &mut AccessBatch) {
        let at = |i: u64, j: u64| cell(3, i * SW_SIDE + j);
        for i in SW_LAST_BLOCK..SW_SIDE {
            for j in SW_LAST_BLOCK..SW_SIDE {
                record(b, at(i - 1, j - 1), false);
                for k in 0..j {
                    record(b, at(i, k), false);
                }
                for k in 0..i {
                    record(b, at(k, j), false);
                }
                record(b, at(i, j), true);
            }
        }
    }

    /// A fixed address stream in the three shapes the gated workloads
    /// have — a three-point stencil over rows of cells (mm), a two-run
    /// merge (sort) and an sw block's row and column prefixes — with cap
    /// flushes and a boundary per row block, as `Batched` issues them.
    /// The counts are those of today's `way` and way count: a change to
    /// the hash, the way count or the eviction rule shows here as a diff
    /// rather than as a benchmark's hit ratio drifting. The stencil and
    /// the merge count the same at 4 096 ways as at 16 384; only the sw
    /// block tells the two apart ((154 642, 208 878) at 4 096).
    #[test]
    fn a_fixed_stream_pins_the_filter() {
        let mut b = AccessBatch::new();
        const COLS: u64 = 192;
        for row in 1..32 {
            for col in 1..COLS {
                record(&mut b, cell(0, (row - 1) * COLS + col - 1), false);
                record(&mut b, cell(0, (row - 1) * COLS + col), false);
                record(&mut b, cell(0, row * COLS + col - 1), false);
                record(&mut b, cell(0, row * COLS + col), true);
            }
            if row % 8 == 0 {
                b.discard();
                b.clear_filter();
            }
        }
        let stencil = b.stats();
        assert_eq!(stencil, (6_720, 16_964));

        b.discard();
        b.clear_filter();
        let (mut i, mut j, mut x) = (0u64, 0u64, 0x9e37_79b9_7f4a_7c15u64);
        while i < 1024 && j < 1024 {
            record(&mut b, cell(1, i), false);
            record(&mut b, cell(1, 1024 + j), false);
            if xorshift(&mut x) & 1 == 0 {
                i += 1;
            } else {
                j += 1;
            }
            record(&mut b, cell(2, i + j - 1), true);
        }
        let merge = b.stats();
        assert_eq!((merge.0 - stencil.0, merge.1 - stencil.1), (4_059, 2_028));

        b.discard();
        b.clear_filter();
        sw_block(&mut b);
        let (recorded, filtered) = b.stats();
        assert_eq!((recorded - merge.0, filtered - merge.1), (16_360, 347_160));
    }

    /// sw's largest block reads about 11 Ki distinct words — 32 row
    /// prefixes and 32 stride-193 column prefixes — over and over at one
    /// dag position. Run it, then run it again at the same position: the
    /// filter must hold the block's working set, so that at least 95 % of
    /// the second pass is combined away rather than sent on to the shadow
    /// store and the journal. What must stay live across the block is the
    /// 6 Ki words of column prefixes (a row prefix is reused only along
    /// its row), and 4 096 ways cannot hold them.
    #[test]
    fn the_filter_holds_an_sw_blocks_working_set() {
        let mut b = AccessBatch::new();
        sw_block(&mut b);
        let first = b.stats();
        sw_block(&mut b);
        let (recorded, filtered) = b.stats();
        let (admitted, combined) = (recorded - first.0, filtered - first.1);
        assert!(
            combined >= 19 * admitted,
            "second pass: {admitted} admitted, {combined} combined away"
        );
    }

    /// A private filter, one per strand, cleared by `fill` at every
    /// boundary: what each batch's view of the shared table must agree
    /// with. `evictions` counts accesses that found another address in
    /// their way.
    struct Cleared {
        ways: Box<[(u64, bool); FILTER_WAYS]>,
        evictions: u64,
    }

    impl Cleared {
        fn new() -> Self {
            Self {
                ways: Box::new([(0, false); FILTER_WAYS]),
                evictions: 0,
            }
        }

        fn clear(&mut self) {
            self.ways.fill((0, false));
        }

        fn record(&mut self, addr: u64, is_write: bool) -> bool {
            let key = addr.wrapping_add(1);
            let slot = &mut self.ways[way(addr)];
            let wrote = slot.0 == key && slot.1;
            if slot.0 == key && (wrote || !is_write) {
                return false;
            }
            self.evictions += u64::from(slot.0 != 0 && slot.0 != key);
            *slot = (key, wrote || is_write);
            true
        }
    }

    /// One step of a xorshift stream.
    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    /// The epoch stamp must decide exactly as a cleared per-strand filter:
    /// same admissions over a long random stream with boundaries.
    #[test]
    fn epoch_stamps_decide_like_a_cleared_filter() {
        let mut b = AccessBatch::new();
        let mut reference = Cleared::new();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for step in 0..200_000u32 {
            xorshift(&mut x);
            if x.is_multiple_of(997) {
                b.clear_filter();
                reference.clear();
            }
            // 16 Ki words scattered over the address space, and a boundary
            // every ~1 000 accesses: about 5 % of accesses find another
            // word in their way and about 4 % repeat. (1 Ki scattered
            // words never shared a way at 16 384 ways.)
            let word = ((x >> 8) % 16_384).wrapping_mul(0xd6e8_feb8_6659_fd93) >> 19;
            let (addr, is_write) = (word * 8, x & 1 == 0);
            assert_eq!(
                b.record(addr, is_write),
                reference.record(addr, is_write),
                "step {step}"
            );
            b.discard();
        }
        let (_, filtered) = b.stats();
        assert!(
            reference.evictions >= 10_000,
            "only {} evictions",
            reference.evictions
        );
        assert!(filtered >= 5_000, "only {filtered} repeats filtered");
    }

    /// Strands nest on one thread as the runtimes nest them: a strand
    /// blocked in a join, its entries pending, while others run to their
    /// end on top of it, up to four deep; each with boundaries of its own,
    /// mostly over 24 shared addresses. The shared filter may admit what a
    /// private one would have dropped (another strand evicted the entry),
    /// never drop what a private one would have admitted; and each flush
    /// delivers exactly the entries its own strand admitted since its last
    /// one, however many strands came and went above them.
    #[test]
    fn interleaved_strands_never_filter_each_other() {
        struct Nested {
            b: AccessBatch,
            reference: Cleared,
            admitted: Vec<BatchedAccess>,
        }
        fn born() -> Nested {
            Nested {
                b: AccessBatch::new(),
                reference: Cleared::new(),
                admitted: Vec::new(),
            }
        }
        fn flush(s: &mut Nested, step: u32) {
            let delivered = s.b.deliver(|entries, _| entries.to_vec());
            assert_eq!(delivered, std::mem::take(&mut s.admitted), "step {step}");
        }
        let mut nest = vec![born()];
        let (mut filtered, mut resumed_holding, mut fresh) = (0, 0, 0u64);
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for step in 0..60_000u32 {
            match xorshift(&mut x) % 32 {
                0 if nest.len() < 4 => nest.push(born()),
                1 if nest.len() > 1 => {
                    let mut ended = nest.pop().expect("more than one");
                    flush(&mut ended, step);
                    filtered += ended.b.stats().1;
                    let below = nest.last().expect("one left");
                    resumed_holding += u64::from(!below.b.is_empty());
                }
                2 => {
                    let top = nest.last_mut().expect("never empty");
                    flush(top, step);
                    top.b.clear_filter();
                    top.reference.clear();
                }
                _ => {
                    let top = nest.last_mut().expect("never empty");
                    let addr = if xorshift(&mut x).is_multiple_of(16) {
                        fresh += 1;
                        0x10_0000 + 8 * fresh
                    } else {
                        x % 24 * 8
                    };
                    let is_write = x & 1 == 0;
                    let admitted = top.b.record(addr, is_write);
                    let private = top.reference.record(addr, is_write);
                    assert!(
                        admitted || !private,
                        "step {step}: another strand's entry filtered {addr} (write: {is_write})"
                    );
                    if admitted {
                        top.admitted.push(BatchedAccess { addr, is_write });
                        if top.b.len() >= DEFAULT_BATCH_CAP {
                            flush(top, step);
                        }
                    }
                }
            }
        }
        assert!(filtered > 1000, "the filter hardly ever held: {filtered}");
        assert!(
            resumed_holding > 100,
            "a strand resumed with entries pending only {resumed_holding} times"
        );
    }

    /// Hooks that log every delivered event.
    struct Log(Mutex<Vec<String>>);
    impl TaskHooks for Log {
        type Strand = ();
        fn root(&self) {}
        fn on_spawn(&self, _: &mut ()) {
            self.0.lock().push("spawn".into());
        }
        fn on_create(&self, _: &mut ()) {
            self.0.lock().push("create".into());
        }
        fn on_sync(&self, _: &mut (), _: Vec<()>) {
            self.0.lock().push("sync".into());
        }
        fn on_get(&self, _: &mut (), _: &()) {
            self.0.lock().push("get".into());
        }
        fn on_task_end(&self, _: &mut ()) {
            self.0.lock().push("end".into());
        }
        fn on_access(&self, _: &mut (), addr: u64, is_write: bool) {
            let kind = if is_write { 'w' } else { 'r' };
            self.0.lock().push(format!("{kind}{addr}"));
        }
        fn on_access_batch(&self, s: &mut (), entries: &[BatchedAccess], filtered: (u64, u64)) {
            if entries.is_empty() {
                self.0.lock().push(format!("filtered only {filtered:?}"));
            }
            for a in entries {
                self.on_access(s, a.addr, a.is_write);
            }
        }
    }

    #[test]
    fn flushes_before_boundaries_in_program_order() {
        let b = Batched::new(Log(Mutex::new(Vec::new())));
        let mut s = b.root();
        // Whole-word addresses: bytes of one word share a way.
        b.on_access(&mut s, 8, false);
        b.on_access(&mut s, 16, true);
        b.on_access(&mut s, 8, false); // combined
        let mut child = b.on_spawn(&mut s);
        b.on_access(&mut child, 24, true);
        b.on_task_end(&mut child);
        b.on_sync(&mut s, vec![child]);
        b.on_task_end(&mut s);
        let log = b.inner().0.lock().clone();
        assert_eq!(log, vec!["r8", "w16", "spawn", "w24", "end", "sync", "end"]);
        assert_eq!(b.stats().filtered, 1);
        assert!(b.stats().flushes >= 2);
    }

    /// A batch dropped with an entry pending gives its stack slot back,
    /// and a batch born after it on that slot decides like a fresh one.
    #[test]
    fn recycled_batch_decides_like_a_fresh_one() {
        let (base, _) = stack();
        let mut b = AccessBatch::new();
        assert!(b.record(8, true));
        assert!(!b.record(8, false), "covered by the write");
        assert_eq!(b.stats(), (1, 1));
        let first_life = b.epoch;
        drop(b); // entries and filtered counts still pending
        assert_eq!(stack().0, base, "the dropped batch's entry is popped");

        let mut b = AccessBatch::new();
        assert_eq!(b.epoch, NO_EPOCH, "no epoch before the first access");
        assert!(b.is_empty() && !b.has_pending_filtered());
        assert!(b.record(8, false), "a stale stamp never filters a read");
        assert_ne!(b.epoch, first_life);
        assert!(b.record(8, true), "nor lends its `wrote` to a write");
        assert_eq!(b.stats(), (2, 0));
        assert_eq!(stack().0, base + 2, "on the slots the dropped batch held");
        assert_eq!(
            pending(&b),
            [false, true].map(|is_write| BatchedAccess { addr: 8, is_write })
        );
    }

    /// A stack grown past the cap still flushes a strand at the cap.
    #[test]
    fn recycled_capacity_does_not_move_the_flush_threshold() {
        let mut grown = AccessBatch::new();
        for a in 0..2 * DEFAULT_BATCH_CAP as u64 {
            grown.record(0x10_0000 + 8 * a, true);
        }
        drop(grown);
        assert!(stack().1 >= 2 * DEFAULT_BATCH_CAP);
        let b = Batched::new(Log(Mutex::new(Vec::new())));
        let mut s = b.root();
        for a in 0..2 * DEFAULT_BATCH_CAP as u64 + 3 {
            b.on_access(&mut s, 8 * a, true);
        }
        assert_eq!(b.inner().0.lock().len(), 2 * DEFAULT_BATCH_CAP);
        assert_eq!(s.batch.len(), 3);
        b.on_task_end(&mut s);
        assert_eq!(b.stats().flushes, 3, "two cap flushes and the end's");
    }

    /// 10 000 strands, 1 000 live at a time, each recording one access:
    /// a strand that ended holds no entries, so the stack never holds
    /// more than the running strand's and never grows past one cap.
    #[test]
    fn the_entry_stack_stays_bounded() {
        let (_, cap) = stack();
        let b = Batched::new(NullHooks);
        let mut root = b.root();
        for _ in 0..10 {
            let children = (0..1000u64)
                .map(|a| {
                    let mut c = b.on_spawn(&mut root);
                    b.on_access(&mut c, a * 8, true);
                    assert_eq!(stack().0, 1);
                    b.on_task_end(&mut c);
                    c
                })
                .collect();
            assert_eq!(stack().0, 0);
            b.on_sync(&mut root, children);
        }
        assert_eq!(stack().1, cap.max(DEFAULT_BATCH_CAP));
        b.on_task_end(&mut root);
        assert_eq!(b.stats().recorded, 10_000);
    }

    /// Serial depth-first run of a seeded random program, driven straight
    /// through the hooks; `between` runs after every step.
    struct RandomProgram<'a> {
        b: &'a Batched<Log>,
        x: u64,
        steps_left: u32,
        between: &'a mut dyn FnMut(),
    }

    impl RandomProgram<'_> {
        fn next(&mut self) -> u64 {
            xorshift(&mut self.x)
        }

        fn task(&mut self, s: &mut BatchStrand<()>, depth: u32) {
            let (mut children, mut futures) = (Vec::new(), Vec::new());
            while self.steps_left > 0 {
                self.steps_left -= 1;
                match self.next() % 16 {
                    0 if depth < 8 => {
                        let mut c = self.b.on_spawn(s);
                        self.task(&mut c, depth + 1);
                        children.push(c);
                    }
                    1 if depth < 8 => {
                        let mut c = self.b.on_create(s);
                        self.task(&mut c, depth + 1);
                        futures.push(c);
                    }
                    2 => self.b.on_sync(s, std::mem::take(&mut children)),
                    3 => {
                        if let Some(done) = futures.pop() {
                            self.b.on_get(s, &done);
                        }
                    }
                    4 if depth > 0 => break,
                    5 if self.next().is_multiple_of(8) => {
                        // Fresh writes 0-2 past the cap, then a repeat: with
                        // none past it, the next flush is of counts only.
                        let base = (u64::from(self.steps_left) + 1) << 16;
                        let past = self.next() % 3;
                        let end = DEFAULT_BATCH_CAP as u64 + past;
                        for a in s.batch.len() as u64..end {
                            self.b.on_access(s, base + 8 * a, true);
                        }
                        assert_eq!(s.batch.len() as u64, past, "a cap flush");
                        self.b.on_access(s, base + 8 * (end - 1), false);
                    }
                    op => {
                        // 24 addresses: repeats at one position are common.
                        let addr = self.next() % 24 * 8;
                        self.b.on_access(s, addr, op & 1 == 0);
                    }
                }
                (self.between)();
            }
            if !children.is_empty() {
                self.b.on_sync(s, children);
            }
            self.b.on_task_end(s);
            // Futures never gotten escape: their strands die here.
        }
    }

    /// Same program twice: on an empty entry stack, and above a batch
    /// that holds 1.5 caps of entries it never flushes (a strand blocked
    /// beneath the run, as in a join's wait). The strands' entries sit at
    /// other slots of a grown stack, and nothing the detector sees moves.
    #[test]
    fn recycling_is_invisible_to_the_detector() {
        fn run(seed: u64, beneath: u64) -> (Vec<String>, BatchStats) {
            let mut held = AccessBatch::new();
            for a in 0..beneath {
                held.record(0x7000_0000 + 8 * a, true);
            }
            let b = Batched::new(Log(Mutex::new(Vec::new())));
            let mut root = b.root();
            RandomProgram {
                b: &b,
                x: seed,
                steps_left: 6000,
                between: &mut || assert!(stack().0 >= beneath as usize),
            }
            .task(&mut root, 0);
            drop(root);
            assert_eq!(stack().0, beneath as usize, "every strand popped its own");
            assert_eq!(pending(&held).len(), beneath as usize);
            let stats = b.stats();
            (b.into_inner().0.into_inner(), stats)
        }
        for seed in 1..=6u64 {
            let seed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let alone = run(seed, 0);
            let above = run(seed, 3 * DEFAULT_BATCH_CAP as u64 / 2);

            assert!(alone.0.len() > 3000, "seed {seed}: {}", alone.0.len());
            let counts_only = alone.0.iter().any(|e| e.starts_with("filtered only"));
            assert!(counts_only && alone.1.filtered > 0, "seed {seed}");
            assert_eq!(above.0, alone.0, "seed {seed}: delivered events");
            assert_eq!(above.1, alone.1, "seed {seed}: Batched::stats()");
        }
    }

    #[test]
    fn size_cap_flushes_midstream() {
        let b = Batched::new(Log(Mutex::new(Vec::new())));
        let mut s = b.root();
        let n = DEFAULT_BATCH_CAP as u64 + 3;
        for a in 0..n {
            b.on_access(&mut s, 8 * a, true);
        }
        // The first DEFAULT_BATCH_CAP writes are already delivered.
        assert_eq!(b.inner().0.lock().len(), DEFAULT_BATCH_CAP);
        b.on_task_end(&mut s);
        assert_eq!(
            b.inner().0.lock().len() as u64,
            n + 1,
            "the writes, then the end"
        );
    }

    /// Spawns and creates with no access between them take no epoch; an
    /// access takes one for its position, and the boundary after it still
    /// re-admits a repeat, as `clear_filter_readmits` checks of the batch.
    #[test]
    fn a_strand_that_records_nothing_takes_no_epoch() {
        let b = Batched::new(NullHooks);
        let mut root = b.root();
        let before = fresh_stamp();
        let children = (0..1000)
            .map(|_| {
                let mut c = b.on_spawn(&mut root);
                let mut f = b.on_create(&mut c);
                b.on_task_end(&mut f);
                b.on_get(&mut c, &f);
                b.on_task_end(&mut c);
                c
            })
            .collect();
        b.on_sync(&mut root, children);
        assert_eq!(
            fresh_stamp(),
            before + 2,
            "a strand that never accessed took an epoch"
        );

        let b = Batched::new(Log(Mutex::new(Vec::new())));
        let mut root = b.root();
        b.on_access(&mut root, 8, true);
        b.on_access(&mut root, 8, true); // combined
        let mut c = b.on_spawn(&mut root);
        b.on_task_end(&mut c);
        b.on_access(&mut root, 8, true); // a new position: admitted
        b.on_sync(&mut root, vec![c]);
        b.on_task_end(&mut root);
        let log = b.inner().0.lock().clone();
        assert_eq!(log, ["w8", "spawn", "end", "w8", "sync", "end"]);
        assert_eq!(
            b.stats(),
            BatchStats {
                flushes: 2,
                recorded: 2,
                filtered: 1
            }
        );
        assert_eq!(
            fresh_stamp(),
            before + 8,
            "one epoch per position that accessed"
        );
    }

    /// What reaches a sink: raw accesses when it is unwrapped; entries,
    /// filtered counts and non-empty batches when `Batched` wraps it.
    #[derive(Default)]
    struct Count {
        accesses: AtomicU64,
        entries: AtomicU64,
        filtered: AtomicU64,
        batches: AtomicU64,
    }

    impl TaskHooks for Count {
        type Strand = ();
        fn root(&self) {}
        fn on_spawn(&self, _: &mut ()) {}
        fn on_create(&self, _: &mut ()) {}
        fn on_sync(&self, _: &mut (), _: Vec<()>) {}
        fn on_get(&self, _: &mut (), _: &()) {}
        fn on_task_end(&self, _: &mut ()) {}
        fn on_access(&self, _: &mut (), _: u64, _: bool) {
            self.accesses.fetch_add(1, Ordering::Relaxed);
        }
        fn on_access_batch(&self, _: &mut (), entries: &[BatchedAccess], filtered: (u64, u64)) {
            let n = entries.len() as u64;
            self.entries.fetch_add(n, Ordering::Relaxed);
            self.filtered
                .fetch_add(filtered.0 + filtered.1, Ordering::Relaxed);
            self.batches.fetch_add(u64::from(n > 0), Ordering::Relaxed);
        }
    }

    /// A binary tree of spawns and creates, a third of the futures never
    /// gotten, each task re-reading and re-writing a few words of its own
    /// and now and then writing more fresh words than one cap holds.
    fn tree<'s, C: Cx<'s>>(ctx: &mut C, depth: u32, id: u64) {
        let touch = |ctx: &mut C, n: u64| {
            for i in 0..n {
                ctx.record_read((id << 16) + 8 * (i % 50));
                ctx.record_write((id << 16) + 8 * (i % 13));
            }
            if id.is_multiple_of(5) {
                for i in 0..DEFAULT_BATCH_CAP as u64 + 7 {
                    ctx.record_write((id << 16) + 0x1000 + 8 * i);
                }
            }
        };
        touch(ctx, id % 7 * 20);
        if depth == 0 {
            return;
        }
        ctx.spawn(move |c| tree(c, depth - 1, 2 * id));
        let h = ctx.create(move |c| tree(c, depth - 1, 2 * id + 1));
        touch(ctx, 3);
        if !id.is_multiple_of(3) {
            ctx.get(h);
        }
        ctx.sync();
        touch(ctx, 2);
    }

    /// `Batched::stats()` counts exactly what reached the sink, and
    /// admitted plus filtered is every access of the program counted
    /// unwrapped, at one to eight workers.
    #[test]
    fn stats_stay_exact_at_any_worker_count() {
        for workers in 1..=8 {
            let rt = Runtime::new(workers);
            let bare = Arc::new(Count::default());
            rt.run(Arc::clone(&bare), |ctx| tree(ctx, 7, 1));
            drop(rt);
            let rt = Runtime::new(workers);
            let batched = Arc::new(Batched::new(Count::default()));
            rt.run(Arc::clone(&batched), |ctx| tree(ctx, 7, 1));
            drop(rt);
            let (stats, sink) = (batched.stats(), batched.inner());
            let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
            let want = BatchStats {
                flushes: load(&sink.batches),
                recorded: load(&sink.entries),
                filtered: load(&sink.filtered),
            };
            assert_eq!(stats, want, "workers={workers}");
            assert_eq!(
                stats.recorded + stats.filtered,
                load(&bare.accesses),
                "workers={workers}"
            );
            assert!(stats.filtered > 0 && stats.flushes > 255, "{stats:?}");
        }
    }
}
