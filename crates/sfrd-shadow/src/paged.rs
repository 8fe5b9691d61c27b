//! Lock-free paged shadow memory with a zero-store redundant-read fast
//! path.
//!
//! ## Page-table layout (TSan-style direct mapping, no hashing)
//!
//! An address resolves to its [`LocEntry`] slot in O(1) through a radix
//! page table — no hash, no probe sequence:
//!
//! ```text
//! addr bits:  [ 63..47 | 46..31 | 30..14 |  13..3  | 2..0 ]
//!                 ▲     ROOT_BITS MID_SHIFT PAGE_SHIFT SLOT granule
//!              fallback  root idx  mid idx  slot idx  (8-byte span)
//! ```
//!
//! * the **root directory** is one eager `Box<[AtomicPtr<MidChunk>]>`
//!   (2^16 entries, 512 KiB) covering the canonical 47-bit user address
//!   space;
//! * **mid chunks** (2^17 page pointers, one chunk maps 2 GiB) and
//!   **pages** (2^11 [`LocEntry`] slots, one page maps 16 KiB) are
//!   CAS-allocated on first touch from [`AppendArena`]s and published with
//!   `AtomicPtr` compare-exchange — a racing loser's allocation simply
//!   stays in the arena (it is never published, is reclaimed on drop, and
//!   is counted by `heap_bytes`);
//! * each slot is **claimed by the first exact address** that touches its
//!   8-byte span (the claim happens inside the slot's write section). The
//!   history is keyed by *exact address*: a second, different address
//!   falling into a claimed span — only possible with sub-word
//!   addressing, which no instrumented `ShadowArray`/`ShadowCell`
//!   produces — is diverted to the fallback map, never merged into the
//!   owner's entry;
//! * the fallback is one mutex-guarded hash map serving diverted
//!   collisions and addresses at or above 2^47 — the only place this
//!   store ever takes a lock, which is exactly what
//!   [`PagedHistory::lock_ops`] counts.
//!
//! ## Per-slot packed word + seqlock write sections
//!
//! Each slot carries a packed `AtomicU64`:
//!
//! ```text
//! [ 63..24: writer epoch | 23..1: reader-summary tag | 0: busy ]
//! ```
//!
//! State-changing accesses open a *seqlock-style write section*: CAS the
//! busy bit (contended retries are counted in
//! [`PagedHistory::cas_retries`]), mutate the canonical [`LocEntry`],
//! refresh the slot's POD mirror, and release by publishing a new packed
//! word — writer epoch from `writer_seq`, reader-summary tag incremented.
//! Any interleaved mutation therefore changes the packed word, which is
//! what makes the read fast path's validation sound.
//!
//! ## The zero-store redundant-read fast path
//!
//! Under [`ReaderPolicy::PerFutureLR`] most reads are *redundant*: the
//! reading future's (leftmost, rightmost) pair already subsumes the new
//! position, and the writer verdict is already cached. Such a read
//! completes with an acquire load of the packed word, a volatile copy of
//! the POD mirror, and a validating re-load — **zero stores, zero CAS, no
//! lock**. The hit condition is *exactly* "the locked path would leave the
//! entry unchanged and report nothing", so hitting cannot lose a race the
//! locked path would find (DESIGN.md §6 gives the argument). Anything else
//! — torn snapshot, missing triple, LR movement, uncached writer — bails
//! to the write section, which re-derives everything under the seqlock.
//!
//! The mirror is read with `read_volatile` and validated against the
//! packed word before use, the standard seqlock idiom (crossbeam's
//! `AtomicCell` does the same): a torn copy is possible but is discarded
//! before any field is interpreted.

use sfrd_runtime::sync::{fence, AtomicPtr, AtomicU64, Mutex, Ordering};
use std::cell::UnsafeCell;

use sfrd_om::AppendArena;

use crate::{AddrMap, LocEntry, ReaderPolicy, Readers};

/// log2 of a slot's address span: one slot per 8-byte word, the stride of
/// the instrumented `ShadowArray<u64>`/`ShadowCell` cells, so contiguous
/// arrays fill pages densely and never collide within a span.
pub const SLOT_SHIFT: u32 = 3;
/// log2 slots per page: one page maps `1 << (PAGE_SHIFT + SLOT_SHIFT)`
/// bytes of address space (16 KiB).
pub const PAGE_SHIFT: u32 = 11;
/// Slots per page.
pub const PAGE_SLOTS: usize = 1 << PAGE_SHIFT;
/// log2 pages per mid-level chunk: one chunk maps 2 GiB.
pub const MID_SHIFT: u32 = 17;
const MID_LEN: usize = 1 << MID_SHIFT;
/// log2 root-directory entries.
pub const ROOT_BITS: u32 = 16;
const ROOT_LEN: usize = 1 << ROOT_BITS;
/// Address bits covered by the direct-mapped table (the canonical 47-bit
/// user address space); anything above goes to the locked fallback map.
pub const MAPPED_BITS: u32 = SLOT_SHIFT + PAGE_SHIFT + MID_SHIFT + ROOT_BITS;

/// Slot-owner sentinel: no address has claimed the slot yet.
const UNCLAIMED: u64 = u64::MAX;

/// Best-effort software prefetch of the cache line at `p` (T0 hint on
/// x86_64, no-op elsewhere). Local copy of the sfrd-reach kernel helper —
/// this crate must not depend on the reachability layer.
#[inline(always)]
fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: PREFETCHT0 is architecturally defined to be safe on any
    // address, mapped or not.
    unsafe {
        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(p as *const i8)
    };
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

// Packed-word layout.
const BUSY: u64 = 1;
const TAG_SHIFT: u32 = 1;
const TAG_BITS: u32 = 23;
const TAG_MASK: u64 = ((1 << TAG_BITS) - 1) << TAG_SHIFT;
const EPOCH_SHIFT: u32 = TAG_SHIFT + TAG_BITS;

#[inline]
fn pack(writer_seq: u64, tag: u64) -> u64 {
    (writer_seq << EPOCH_SHIFT) | ((tag << TAG_SHIFT) & TAG_MASK)
}

/// Triples mirrored inline for the lock-free read path. A location read by
/// more concurrent futures spills past the mirror and falls back to the
/// write section (still correct, just not zero-store).
const MIRROR_LR: usize = 2;

/// POD snapshot of a [`LocEntry`], volatile-readable under packed-word
/// validation. `owner` is the exact address that claimed the slot
/// ([`UNCLAIMED`] if none). `None` triple slots are unused; `ok == false`
/// means the entry is not mirrorable (keep-all readers, or more than
/// [`MIRROR_LR`] futures) and the fast path must bail.
#[derive(Clone, Copy)]
struct Mirror<P: Copy> {
    owner: u64,
    writer: Option<P>,
    writer_seq: u64,
    lr: [Option<(u32, P, P)>; MIRROR_LR],
    ok: bool,
}

impl<P: Copy> Mirror<P> {
    fn empty() -> Self {
        Mirror {
            owner: UNCLAIMED,
            writer: None,
            writer_seq: 0,
            lr: [None; MIRROR_LR],
            ok: true,
        }
    }

    fn of(owner: u64, e: &LocEntry<P>) -> Self {
        let mut lr = [None; MIRROR_LR];
        let ok = match &e.readers {
            Readers::PerFuture(v) if v.len() <= MIRROR_LR => {
                for (slot, &t) in lr.iter_mut().zip(v.iter()) {
                    *slot = Some(t);
                }
                true
            }
            _ => false,
        };
        Mirror {
            owner,
            writer: e.writer,
            writer_seq: e.writer_seq,
            lr,
            ok,
        }
    }

    fn find(&self, future: u32) -> Option<(P, P)> {
        self.lr
            .iter()
            .flatten()
            .find(|t| t.0 == future)
            .map(|&(_, l, r)| (l, r))
    }
}

/// One location's slot: packed word (seqlock + epoch + reader tag), the
/// exact claiming address, the fast-path mirror, and the canonical entry.
struct Slot<P: Copy> {
    packed: AtomicU64,
    /// Exact address that claimed this slot ([`UNCLAIMED`] until first
    /// touch); written only inside the write section.
    owner: UnsafeCell<u64>,
    mirror: UnsafeCell<Mirror<P>>,
    entry: UnsafeCell<LocEntry<P>>,
}

// SAFETY: `owner`, `mirror` and `entry` are only written inside the
// busy-bit write section (exclusive by CAS); `mirror` is only read
// lock-free via `read_volatile` with packed-word validation that discards
// torn copies.
unsafe impl<P: Copy + Send> Sync for Slot<P> {}
unsafe impl<P: Copy + Send> Send for Slot<P> {}

impl<P: Copy> Slot<P> {
    fn new(policy: ReaderPolicy) -> Self {
        Slot {
            packed: AtomicU64::new(0),
            owner: UnsafeCell::new(UNCLAIMED),
            mirror: UnsafeCell::new(Mirror::empty()),
            entry: UnsafeCell::new(LocEntry::new(policy)),
        }
    }
}

/// A page of [`PAGE_SLOTS`] direct-mapped slots.
struct Page<P: Copy> {
    slots: Box<[Slot<P>]>,
}

impl<P: Copy> Page<P> {
    fn new(policy: ReaderPolicy) -> Self {
        Page {
            slots: (0..PAGE_SLOTS).map(|_| Slot::new(policy)).collect(),
        }
    }
}

/// Mid-level directory chunk: page pointers for one 2-GiB address region.
struct MidChunk<P: Copy> {
    pages: Box<[AtomicPtr<Page<P>>]>,
}

impl<P: Copy> MidChunk<P> {
    fn new() -> Self {
        MidChunk {
            pages: (0..MID_LEN)
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect(),
        }
    }
}

/// The lock-free paged access history (see module docs).
pub struct PagedHistory<P: Copy + Send> {
    root: Box<[AtomicPtr<MidChunk<P>>]>,
    mid_arena: AppendArena<MidChunk<P>>,
    page_arena: AppendArena<Page<P>>,
    policy: ReaderPolicy,
    /// Addresses above [`MAPPED_BITS`]: the locked escape hatch.
    fallback: Mutex<AddrMap<LocEntry<P>>>,
    /// Mutex acquisitions — fallback-map only; the mapped path never locks.
    lock_ops: AtomicU64,
    /// Zero-store fast-path read hits.
    fast_hits: AtomicU64,
    /// Write-section CAS retries + fast-path snapshot validation failures.
    cas_retries: AtomicU64,
    /// Pages published into the directory.
    page_allocs: AtomicU64,
    /// Software prefetches issued by batch replays ([`Self::prefetch_slot`]).
    prefetches: AtomicU64,
}

impl<P: Copy + Send> PagedHistory<P> {
    /// Create an empty paged history.
    pub fn with_policy(policy: ReaderPolicy) -> Self {
        Self {
            root: (0..ROOT_LEN)
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect(),
            mid_arena: AppendArena::new(),
            page_arena: AppendArena::new(),
            policy,
            fallback: Mutex::new(AddrMap::default()),
            lock_ops: AtomicU64::new(0),
            fast_hits: AtomicU64::new(0),
            cas_retries: AtomicU64::new(0),
            page_allocs: AtomicU64::new(0),
            prefetches: AtomicU64::new(0),
        }
    }

    /// The reader-retention policy in force.
    pub fn policy(&self) -> ReaderPolicy {
        self.policy
    }

    /// Fallback-map mutex acquisitions (the mapped path is lock-free).
    pub fn lock_ops(&self) -> u64 {
        self.lock_ops.load(Ordering::Relaxed)
    }

    /// Zero-store fast-path read hits.
    pub fn fast_hits(&self) -> u64 {
        self.fast_hits.load(Ordering::Relaxed)
    }

    /// Write-section CAS retries plus fast-path validation failures — the
    /// contention signal of the per-location seqlock.
    pub fn cas_retries(&self) -> u64 {
        self.cas_retries.load(Ordering::Relaxed)
    }

    /// Pages published into the directory.
    pub fn page_allocs(&self) -> u64 {
        self.page_allocs.load(Ordering::Relaxed)
    }

    /// Software prefetches issued so far.
    pub fn prefetches(&self) -> u64 {
        self.prefetches.load(Ordering::Relaxed)
    }

    /// Credit `n` prefetches issued by a batch replay. Counted once per
    /// batch by the caller — a per-access atomic add would cost more than
    /// the prefetch hides.
    pub fn note_prefetches(&self, n: u64) {
        if n != 0 {
            self.prefetches.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Best-effort prefetch of the slot cache line `addr` maps to, without
    /// allocating pages or disturbing any [`PageCursor`] memo. Walks the
    /// root→mid directory (two dependent loads — the page itself is the
    /// cheap part; the *slot* line inside it is the likely miss a batch
    /// replay wants hidden) and issues a T0 hint on the slot. Returns
    /// whether a hint was issued so the caller can tally them.
    #[inline]
    pub fn prefetch_slot(&self, addr: u64) -> bool {
        if addr >> MAPPED_BITS != 0 {
            return false;
        }
        let word = addr >> SLOT_SHIFT;
        match self.page_for(word, false) {
            Some(page) => {
                prefetch_read(&page.slots[(word & (PAGE_SLOTS as u64 - 1)) as usize]);
                true
            }
            None => false,
        }
    }

    /// A page cursor: batch flushers iterate accesses through one cursor so
    /// runs of same-page addresses skip the two directory loads.
    pub fn cursor(&self) -> PageCursor<'_, P> {
        PageCursor {
            hist: self,
            key: u64::MAX,
            page: None,
        }
    }

    /// Per-access entry point (no cursor reuse): run `f` on the location's
    /// entry inside its write section.
    pub fn locked<R>(&self, addr: u64, f: impl FnOnce(&mut LocEntry<P>) -> R) -> R {
        self.cursor().locked(addr, f)
    }

    /// Resolve (optionally allocating) the page containing `word` (an
    /// address right-shifted by [`SLOT_SHIFT`]). Caller guarantees
    /// `word < 1 << (MAPPED_BITS - SLOT_SHIFT)`.
    fn page_for(&self, word: u64, alloc: bool) -> Option<&Page<P>> {
        let granule = word;
        let root_idx = (granule >> (PAGE_SHIFT + MID_SHIFT)) as usize;
        debug_assert!(root_idx < ROOT_LEN);
        let mid_ptr = self.root[root_idx].load(Ordering::Acquire);
        let mid: &MidChunk<P> = if mid_ptr.is_null() {
            if !alloc {
                return None;
            }
            let idx = self.mid_arena.push(MidChunk::new());
            let fresh: *mut MidChunk<P> = self.mid_arena.get(idx) as *const _ as *mut _;
            match self.root[root_idx].compare_exchange(
                std::ptr::null_mut(),
                fresh,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                // SAFETY: both pointers come from arenas owned by self and
                // arenas never move or free elements before drop.
                Ok(_) => unsafe { &*fresh },
                Err(winner) => unsafe { &*winner },
            }
        } else {
            // SAFETY: published pointers reference arena slots owned by self.
            unsafe { &*mid_ptr }
        };
        let mid_idx = ((granule >> PAGE_SHIFT) & (MID_LEN as u64 - 1)) as usize;
        let page_ptr = mid.pages[mid_idx].load(Ordering::Acquire);
        if page_ptr.is_null() {
            if !alloc {
                return None;
            }
            let idx = self.page_arena.push(Page::new(self.policy));
            let fresh: *mut Page<P> = self.page_arena.get(idx) as *const _ as *mut _;
            match mid.pages[mid_idx].compare_exchange(
                std::ptr::null_mut(),
                fresh,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    self.page_allocs.fetch_add(1, Ordering::Relaxed);
                    // SAFETY: as above — arena slots are pinned.
                    Some(unsafe { &*fresh })
                }
                Err(winner) => Some(unsafe { &*winner }),
            }
        } else {
            // SAFETY: as above.
            Some(unsafe { &*page_ptr })
        }
    }

    /// Open the slot's write section. Returns the pre-section packed word.
    fn lock_slot(&self, slot: &Slot<P>) -> u64 {
        let mut spins = 0u32;
        loop {
            let cur = slot.packed.load(Ordering::Relaxed);
            if cur & BUSY == 0
                && slot
                    .packed
                    .compare_exchange_weak(cur, cur | BUSY, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                return cur;
            }
            self.cas_retries.fetch_add(1, Ordering::Relaxed);
            spins += 1;
            if spins > 64 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Close the write section: refresh the mirror from the entry and
    /// publish a new packed word (fresh epoch bits, tag + 1).
    fn unlock_slot(&self, slot: &Slot<P>, prev: u64) {
        // SAFETY: we hold the busy bit — exclusive access to all cells.
        let entry = unsafe { &*slot.entry.get() };
        let owner = unsafe { *slot.owner.get() };
        unsafe { slot.mirror.get().write(Mirror::of(owner, entry)) };
        let tag = ((prev & TAG_MASK) >> TAG_SHIFT).wrapping_add(1);
        slot.packed
            .store(pack(entry.writer_seq, tag), Ordering::Release);
    }

    fn fallback_locked<R>(&self, addr: u64, f: impl FnOnce(&mut LocEntry<P>) -> R) -> R {
        self.lock_ops.fetch_add(1, Ordering::Relaxed);
        let mut map = self.fallback.lock();
        let policy = self.policy;
        let e = map.entry(addr).or_insert_with(|| LocEntry::new(policy));
        f(e)
    }

    fn is_tracked(e: &LocEntry<P>) -> bool {
        e.writer.is_some() || !e.readers.is_empty() || e.writer_seq > 0
    }

    /// Visit every touched `(addr, entry)` pair. Quiescent use only
    /// (diagnostics / tests / report): each slot is visited inside its
    /// write section, so concurrent mutators are excluded per slot but the
    /// overall sweep is not a consistent cut.
    pub fn for_each_entry(&self, mut f: impl FnMut(u64, &LocEntry<P>)) {
        for mid_slot in self.root.iter() {
            let mid_ptr = mid_slot.load(Ordering::Acquire);
            if mid_ptr.is_null() {
                continue;
            }
            // SAFETY: published arena pointer (see page_for).
            let mid = unsafe { &*mid_ptr };
            for page_slot in mid.pages.iter() {
                let page_ptr = page_slot.load(Ordering::Acquire);
                if page_ptr.is_null() {
                    continue;
                }
                // SAFETY: as above.
                let page = unsafe { &*page_ptr };
                for slot in page.slots.iter() {
                    let prev = self.lock_slot(slot);
                    // SAFETY: busy bit held.
                    let e = unsafe { &*slot.entry.get() };
                    let owner = unsafe { *slot.owner.get() };
                    if owner != UNCLAIMED && Self::is_tracked(e) {
                        f(owner, e);
                    }
                    self.unlock_slot(slot, prev);
                }
            }
        }
        let map = self.fallback.lock();
        for (&addr, e) in map.iter() {
            f(addr, e);
        }
    }

    /// Number of tracked locations.
    pub fn locations(&self) -> usize {
        let mut n = 0;
        self.for_each_entry(|_, _| n += 1);
        n
    }

    /// Maximum retained readers over all locations (≤ 2k under
    /// [`ReaderPolicy::PerFutureLR`], Lemmas 3.10/3.11).
    pub fn max_retained_readers(&self) -> usize {
        let mut max = 0;
        self.for_each_entry(|_, e| max = max.max(e.readers.len()));
        max
    }

    /// Approximate heap bytes: root directory, both arenas (including the
    /// boxed payloads of every allocated chunk and page — published or
    /// stranded by a CAS race), retained-reader payloads, and the fallback
    /// map.
    pub fn heap_bytes(&self) -> usize {
        let mut bytes = self.root.len() * std::mem::size_of::<AtomicPtr<MidChunk<P>>>();
        bytes += self.mid_arena.heap_bytes()
            + self.mid_arena.len() * MID_LEN * std::mem::size_of::<AtomicPtr<Page<P>>>();
        bytes += self.page_arena.heap_bytes()
            + self.page_arena.len() * PAGE_SLOTS * std::mem::size_of::<Slot<P>>();
        self.for_each_entry(|_, e| bytes += e.readers.heap_bytes());
        let map = self.fallback.lock();
        bytes += map.capacity() * (std::mem::size_of::<(u64, LocEntry<P>)>() + 8);
        bytes
    }
}

/// A resolved-page memo over a [`PagedHistory`]: consecutive accesses to
/// the same page (the common case for array scans) reuse the page pointer
/// instead of re-walking the two directory levels.
pub struct PageCursor<'a, P: Copy + Send> {
    hist: &'a PagedHistory<P>,
    /// `(addr >> SLOT_SHIFT) >> PAGE_SHIFT` of the cached page
    /// (`u64::MAX` = none).
    key: u64,
    page: Option<&'a Page<P>>,
}

impl<'a, P: Copy + Send> PageCursor<'a, P> {
    /// The backing history.
    pub fn history(&self) -> &'a PagedHistory<P> {
        self.hist
    }

    fn slot(&mut self, addr: u64, alloc: bool) -> Option<&'a Slot<P>> {
        let word = addr >> SLOT_SHIFT;
        let key = word >> PAGE_SHIFT;
        if self.key != key {
            self.page = self.hist.page_for(word, alloc);
            self.key = if self.page.is_some() { key } else { u64::MAX };
        }
        self.page
            .map(|p| &p.slots[(word & (PAGE_SLOTS as u64 - 1)) as usize])
    }
}

impl<P: Copy + Send> PageCursor<'_, P> {
    /// Run `f` on the location's entry inside its seqlock write section
    /// (creating the page and claiming the slot on first touch). No mutex
    /// is taken unless the address lies outside the mapped range or its
    /// slot is already claimed by a different exact address (sub-word
    /// collision) — both divert to the fallback map.
    pub fn locked<R>(&mut self, addr: u64, f: impl FnOnce(&mut LocEntry<P>) -> R) -> R {
        if addr >> MAPPED_BITS != 0 {
            return self.hist.fallback_locked(addr, f);
        }
        let slot = self
            .slot(addr, true)
            .expect("mapped-range page allocation cannot fail");
        let hist = self.hist;
        let prev = hist.lock_slot(slot);
        // SAFETY: busy bit held — exclusive access to owner and entry.
        let owner = unsafe { *slot.owner.get() };
        if owner == UNCLAIMED {
            unsafe { *slot.owner.get() = addr };
        } else if owner != addr {
            // Exact-address discipline: never merge two addresses into one
            // entry. Release the slot untouched and serve from the map.
            hist.unlock_slot(slot, prev);
            return hist.fallback_locked(addr, f);
        }
        let r = f(unsafe { &mut *slot.entry.get() });
        hist.unlock_slot(slot, prev);
        r
    }

    /// The zero-store redundant-read fast path. Returns `true` iff the
    /// read at `(future, pos)` is provably a no-op on the entry — same
    /// writer epoch accepted by `writer_ok`, leftmost/rightmost unchanged
    /// under the LR update rule — in which case nothing was written
    /// anywhere and the caller is done. On `false` the caller must take
    /// [`locked`](Self::locked) and run the full check.
    ///
    /// `writer_ok(writer, writer_seq)` decides the writer check from the
    /// validated snapshot (typically: position equality, then the strand's
    /// epoch-keyed verdict cache, then a reachability query whose positive
    /// verdict may be cached strand-locally — all zero-store on the entry).
    /// Returning `false` (a race, or an unprovable verdict) routes the
    /// access to the locked path, which re-derives and reports.
    #[allow(clippy::too_many_arguments)]
    pub fn fast_read(
        &mut self,
        addr: u64,
        future: u32,
        pos: P,
        eng_less: impl Fn(&P, &P) -> bool,
        heb_less: impl Fn(&P, &P) -> bool,
        pos_precedes: impl Fn(&P, &P) -> bool,
        writer_ok: impl FnOnce(Option<P>, u64) -> bool,
    ) -> bool
    where
        P: PartialEq,
    {
        if self.hist.policy != ReaderPolicy::PerFutureLR || addr >> MAPPED_BITS != 0 {
            return false;
        }
        // An absent page/empty entry means the read must record — slow path.
        let Some(slot) = self.slot(addr, false) else {
            return false;
        };
        let pk1 = slot.packed.load(Ordering::Acquire);
        if pk1 & BUSY != 0 {
            self.hist.cas_retries.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        // SAFETY: seqlock read protocol — the copy may be torn, but it is
        // validated against the packed word (below) before any field is
        // interpreted, and Mirror is POD (no heap indirection to chase).
        let m = unsafe { slot.mirror.get().read_volatile() };
        fence(Ordering::Acquire);
        if slot.packed.load(Ordering::Relaxed) != pk1 {
            self.hist.cas_retries.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        // The snapshot must belong to this exact address: unclaimed slots
        // and sub-word collisions (entry lives in the fallback map) miss.
        if m.owner != addr || !m.ok {
            return false;
        }
        let Some((l, r)) = m.find(future) else {
            return false;
        };
        // Value-level no-op test of Readers::record: the slot moves iff the
        // stored reader precedes the new one (serial-successor advance) or
        // the new one is further left/right — and an assignment of an equal
        // value is no move.
        let left_stable = l == pos || !(pos_precedes(&l, &pos) || eng_less(&pos, &l));
        let right_stable = r == pos || !(pos_precedes(&r, &pos) || heb_less(&pos, &r));
        if !(left_stable && right_stable) {
            return false;
        }
        if !writer_ok(m.writer, m.writer_seq) {
            return false;
        }
        self.hist.fast_hits.fetch_add(1, Ordering::Relaxed);
        true
    }
}
