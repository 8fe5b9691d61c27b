//! The strand-event batch pipeline: per-strand access buffering.
//!
//! §4 of the paper measures that the dominant `full`-configuration cost is
//! the per-access synchronization on the shadow table — one lock
//! acquisition per instrumented read/write. The batch pipeline attacks
//! that volume from the runtime side: instead of handing every access to
//! the detector immediately, [`Batched`] accumulates a strand's accesses
//! in a per-strand buffer and hands them to the detector's
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
//! Within a batch the buffer **write-combines**: a repeat access to an
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
//! epoch*: a number taken fresh at strand birth and at every boundary and
//! never handed out twice, by any thread. A stamp that is not the running
//! batch's epoch reads as an empty way, so strands that share a thread —
//! nested in a blocked join, or one after another — can only evict each
//! other's entries, never filter each other's accesses.
//!
//! The table has [`FILTER_WAYS`] = 16 384 ways, [`FILTER_BYTES`] = 256 KiB
//! per thread: enough for the working set one strand re-reads between two
//! boundaries on the benchmark's inputs. An sw block's 32 column prefixes
//! stay live while its row prefixes stream through them, and a second
//! pass over the block admits 2 % of its accesses at 16 384 ways against
//! 42 % at 4 096. The table is static TLS, so every thread of the process
//! carries it from birth, whether it records or not, and no heap census
//! counts it.

use std::cell::{Cell, RefCell};
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

/// A strand's buffer is delivered once it holds this many accesses.
pub const DEFAULT_BATCH_CAP: usize = 512;

/// Epochs a thread claims from [`EPOCH_BLOCKS`] at a time.
const EPOCH_BLOCK: u64 = 1 << 16;

/// The first epoch of the next unclaimed block. Epoch 0 is never handed
/// out: it is the stamp of a way no batch has used.
static EPOCH_BLOCKS: AtomicU64 = AtomicU64::new(1);

/// Dropped batches' entry buffers a thread keeps for its next ones:
/// 16 × 8 KB, a spawn fan-out's worth.
const SPARES_PER_THREAD: usize = 16;

thread_local! {
    /// This thread's write-combining filter: `(addr + 1, epoch << 1 |
    /// wrote)` per way. Const-initialised with no destructor, so `with`
    /// is a plain thread-local address: no lazy set-up, no state check.
    static FILTER: [Cell<(u64, u64)>; FILTER_WAYS] =
        const { [const { Cell::new((0, 0)) }; FILTER_WAYS] };
    /// `(next, end)` of this thread's block of epochs.
    static EPOCHS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    /// Entry buffers of dropped batches, each empty. A construct-heavy
    /// program starts and ends a strand per few accesses, and an 8 KB
    /// `malloc` per strand is then most of what recording costs. Touched
    /// at strand birth and death only, never by `record`.
    static SPARES: RefCell<Vec<Vec<BatchedAccess>>> = const { RefCell::new(Vec::new()) };
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

/// A strand's access buffer and the epoch of its current dag position.
#[derive(Debug)]
pub struct AccessBatch {
    entries: Vec<BatchedAccess>,
    /// The current position's epoch, shifted left one: the stamp this
    /// batch's filter entries carry, bit 0 free for an entry's `wrote`
    /// flag. A strand boundary takes a fresh one instead of clearing the
    /// filter; a size-cap flush does not (the position is unchanged, so
    /// already-flushed accesses still cover repeats).
    epoch: u64,
    recorded: u64,
    filtered: u64,
    /// Filtered accesses per kind since the last flush, so a batch-aware
    /// sink can keep program-characteristic counters (Fig. 3 reads/writes)
    /// exact even though filtered repeats never reach it as entries.
    pending_filtered: (u64, u64),
}

impl AccessBatch {
    /// Empty batch with capacity for [`DEFAULT_BATCH_CAP`] entries, on a
    /// recycled buffer when this thread has one, at a fresh epoch.
    pub fn new() -> Self {
        let mut entries = SPARES
            .try_with(|s| s.borrow_mut().pop())
            .ok()
            .flatten()
            .unwrap_or_default();
        entries.reserve_exact(DEFAULT_BATCH_CAP);
        Self {
            entries,
            epoch: fresh_stamp(),
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
        let epoch = self.epoch;
        let repeat = FILTER.with(|filter| {
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
            slot.set((key, epoch | u64::from(wrote || is_write)));
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
        self.entries.push(BatchedAccess { addr, is_write });
        true
    }

    /// Any filtered accesses not yet delivered?
    fn has_pending_filtered(&self) -> bool {
        self.pending_filtered != (0, 0)
    }

    /// Buffered entries awaiting flush.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Nothing buffered?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drop the pending entries and filtered counts, once delivered.
    fn discard(&mut self) {
        self.pending_filtered = (0, 0);
        self.entries.clear();
    }

    /// Invalidate the position-scoped filter: O(1), the batch moves to a
    /// fresh epoch and every entry it stamped goes stale.
    pub fn clear_filter(&mut self) {
        self.epoch = fresh_stamp();
    }

    /// `(recorded, filtered)` counters of this strand.
    pub fn stats(&self) -> (u64, u64) {
        (self.recorded, self.filtered)
    }
}

impl Default for AccessBatch {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for AccessBatch {
    fn drop(&mut self) {
        let mut entries = std::mem::take(&mut self.entries);
        entries.clear();
        // `try_with`: a strand dropped while its thread exits finds the
        // spares already gone, and `entries` is freed with the closure.
        let _ = SPARES.try_with(move |s| {
            let mut s = s.borrow_mut();
            if s.len() < SPARES_PER_THREAD {
                s.push(entries);
            }
        });
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
/// batch through one shadow page cursor.
pub struct Batched<H> {
    inner: H,
    counters: BatchCounters,
}

impl<H> Batched<H> {
    /// Wrap `inner`, flushing at [`DEFAULT_BATCH_CAP`] buffered accesses.
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

    /// Unwrap the detector (after the run; pending per-strand buffers are
    /// gone with their strands by then).
    pub fn into_inner(self) -> H {
        self.inner
    }

    /// Aggregate pipeline counters (strands fold in at task end).
    pub fn stats(&self) -> BatchStats {
        BatchStats {
            flushes: self.counters.flushes.load(Ordering::Relaxed),
            recorded: self.counters.recorded.load(Ordering::Relaxed),
            filtered: self.counters.filtered.load(Ordering::Relaxed),
        }
    }
}

/// Strand of a [`Batched`] detector: the inner strand plus its buffer.
pub struct BatchStrand<S> {
    inner: S,
    batch: AccessBatch,
}

impl<S> BatchStrand<S> {
    /// The wrapped detector's strand.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<H: TaskHooks> Batched<H> {
    #[inline]
    fn flush(&self, s: &mut BatchStrand<H::Strand>) {
        // Deliver when entries are pending, or when only filtered counts
        // are (a cap flush delivered the entries but repeats kept
        // arriving) — the sink still needs those for its access counters.
        if !s.batch.is_empty() || s.batch.has_pending_filtered() {
            if !s.batch.is_empty() {
                self.counters.flushes.fetch_add(1, Ordering::Relaxed);
            }
            let b = &mut s.batch;
            self.inner
                .on_access_batch(&mut s.inner, &b.entries, b.pending_filtered);
            b.discard();
        }
    }

    /// Boundary flush: deliver pending accesses, then invalidate the
    /// position-scoped filter (the strand's dag position changes next).
    fn boundary(&self, s: &mut BatchStrand<H::Strand>) {
        self.flush(s);
        s.batch.clear_filter();
    }

    fn fresh_strand(&self, inner: H::Strand) -> BatchStrand<H::Strand> {
        BatchStrand {
            inner,
            batch: AccessBatch::new(),
        }
    }

    /// Fold a finished strand's counters into the aggregate.
    fn absorb_stats(&self, s: &BatchStrand<H::Strand>) {
        let (recorded, filtered) = s.batch.stats();
        self.counters
            .recorded
            .fetch_add(recorded, Ordering::Relaxed);
        self.counters
            .filtered
            .fetch_add(filtered, Ordering::Relaxed);
    }
}

impl<H: TaskHooks> TaskHooks for Batched<H> {
    type Strand = BatchStrand<H::Strand>;

    fn root(&self) -> Self::Strand {
        self.fresh_strand(self.inner.root())
    }

    fn on_spawn(&self, p: &mut Self::Strand) -> Self::Strand {
        self.boundary(p);
        self.fresh_strand(self.inner.on_spawn(&mut p.inner))
    }

    fn on_create(&self, p: &mut Self::Strand) -> Self::Strand {
        self.boundary(p);
        self.fresh_strand(self.inner.on_create(&mut p.inner))
    }

    fn on_sync(&self, s: &mut Self::Strand, children: Vec<Self::Strand>) {
        self.boundary(s);
        self.inner.on_sync(
            &mut s.inner,
            children
                .into_iter()
                .map(|mut c| {
                    // Children flushed at their task end; drain defensively.
                    self.flush(&mut c);
                    c.inner
                })
                .collect(),
        );
    }

    fn on_get(&self, s: &mut Self::Strand, done: &Self::Strand) {
        self.boundary(s);
        debug_assert!(done.batch.is_empty(), "future strand ended unflushed");
        self.inner.on_get(&mut s.inner, &done.inner);
    }

    fn on_task_end(&self, s: &mut Self::Strand) {
        self.boundary(s);
        self.absorb_stats(s);
        self.inner.on_task_end(&mut s.inner);
    }

    fn on_task_return(&self, p: &mut Self::Strand, c: &mut Self::Strand) {
        self.boundary(p);
        self.flush(c);
        self.inner.on_task_return(&mut p.inner, &mut c.inner);
    }

    #[inline]
    fn on_access(&self, s: &mut Self::Strand, addr: u64, is_write: bool) {
        if s.batch.record(addr, is_write) && s.batch.len() >= DEFAULT_BATCH_CAP {
            self.flush(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;

    #[test]
    fn filter_write_combines() {
        let mut b = AccessBatch::new();
        assert!(b.record(8, false));
        assert!(!b.record(8, false), "repeat read combined");
        assert!(b.record(8, true), "first write kept after read");
        assert!(!b.record(8, true), "repeat write combined");
        assert!(!b.record(8, false), "read after write covered");
        let kinds: Vec<_> = b.entries.iter().map(|a| (a.addr, a.is_write)).collect();
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

    /// Three strands' batches recording on one thread, interleaved, over
    /// 24 addresses and with boundaries of their own: the shared filter
    /// may admit what a private one would have dropped (another strand
    /// evicted the entry), never drop what a private one would have
    /// admitted.
    #[test]
    fn interleaved_strands_never_filter_each_other() {
        let mut strands: Vec<(AccessBatch, Cleared)> = (0..3)
            .map(|_| (AccessBatch::new(), Cleared::new()))
            .collect();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for step in 0..60_000u32 {
            let (b, reference) = &mut strands[(xorshift(&mut x) % 3) as usize];
            if xorshift(&mut x).is_multiple_of(29) {
                b.clear_filter();
                reference.clear();
            }
            let (addr, is_write) = (xorshift(&mut x) % 24 * 8, x & 1 == 0);
            let (admitted, private) = (b.record(addr, is_write), reference.record(addr, is_write));
            assert!(
                admitted || !private,
                "step {step}: another strand's entry filtered {addr} (write: {is_write})"
            );
            b.discard();
        }
        for (b, _) in &strands {
            let (_, filtered) = b.stats();
            assert!(filtered > 1000, "the filter hardly ever held: {filtered}");
        }
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

    /// Empty this thread's spares, keeping them alive for the caller.
    fn take_spares() -> Vec<Vec<BatchedAccess>> {
        SPARES.with(|s| std::mem::take(&mut *s.borrow_mut()))
    }

    fn spares() -> usize {
        SPARES.with(|s| s.borrow().len())
    }

    #[test]
    fn recycled_batch_decides_like_a_fresh_one() {
        drop(take_spares());
        let mut b = AccessBatch::new();
        assert!(b.record(8, true));
        assert!(!b.record(8, false), "covered by the write");
        assert_eq!(b.stats(), (1, 1));
        let first_life = b.epoch;
        drop(b); // entries and filtered counts still pending
        assert_eq!(spares(), 1);

        let mut b = AccessBatch::new();
        assert_eq!(spares(), 0, "new() took the spare");
        assert_ne!(b.epoch, first_life);
        assert!(b.is_empty() && !b.has_pending_filtered());
        assert_eq!(b.stats(), (0, 0));
        assert!(b.record(8, false), "a stale stamp never filters a read");
        assert!(b.record(8, true), "nor lends its `wrote` to a write");
        assert_eq!(b.stats(), (2, 0));
    }

    /// A spare with room past the cap still flushes at the cap.
    #[test]
    fn recycled_capacity_does_not_move_the_flush_threshold() {
        drop(take_spares());
        let mut grown = AccessBatch::new();
        grown.entries.reserve_exact(2 * DEFAULT_BATCH_CAP);
        drop(grown);
        let b = Batched::new(Log(Mutex::new(Vec::new())));
        let mut s = b.root();
        assert_eq!(spares(), 0, "root strand runs on the grown spare");
        assert!(s.batch.entries.capacity() >= 2 * DEFAULT_BATCH_CAP);
        for a in 0..2 * DEFAULT_BATCH_CAP as u64 + 3 {
            b.on_access(&mut s, 8 * a, true);
        }
        assert_eq!(b.inner().0.lock().len(), 2 * DEFAULT_BATCH_CAP);
        assert_eq!(b.stats().flushes, 2, "two cap flushes");
    }

    #[test]
    fn spares_stay_bounded() {
        drop(take_spares());
        let b = Batched::new(crate::hooks::NullHooks);
        let mut root = b.root();
        // 10 000 strands, 1 000 live at a time.
        for _ in 0..10 {
            let children = (0..1000u64)
                .map(|a| {
                    let mut c = b.on_spawn(&mut root);
                    b.on_access(&mut c, a * 8, true);
                    b.on_task_end(&mut c);
                    c
                })
                .collect();
            b.on_sync(&mut root, children);
            assert_eq!(spares(), SPARES_PER_THREAD);
        }
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

    /// Same program twice: strands dying (and their buffers coming back)
    /// as the program goes, against every dead buffer held to the end so
    /// each strand is born on fresh storage.
    #[test]
    fn recycling_is_invisible_to_the_detector() {
        fn run(seed: u64, between: &mut dyn FnMut()) -> (Vec<String>, BatchStats) {
            let b = Batched::new(Log(Mutex::new(Vec::new())));
            let mut root = b.root();
            RandomProgram {
                b: &b,
                x: seed,
                steps_left: 6000,
                between,
            }
            .task(&mut root, 0);
            drop(root);
            let stats = b.stats();
            (b.into_inner().0.into_inner(), stats)
        }
        for seed in 1..=6u64 {
            let seed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            drop(take_spares());
            let mut reused = 0;
            let recycled = run(seed, &mut || reused = reused.max(spares()));
            assert!(reused > 0, "seed {seed}: no buffer came back");

            drop(take_spares());
            let mut held = Vec::new();
            let fresh = run(seed, &mut || held.append(&mut take_spares()));
            assert!(held.len() > SPARES_PER_THREAD, "seed {seed}");

            assert!(fresh.0.len() > 3000, "seed {seed}: {}", fresh.0.len());
            let counts_only = fresh.0.iter().any(|e| e.starts_with("filtered only"));
            assert!(counts_only && fresh.1.filtered > 0, "seed {seed}");
            assert_eq!(recycled.0, fresh.0, "seed {seed}: delivered events");
            assert_eq!(recycled.1, fresh.1, "seed {seed}: Batched::stats()");
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
}
