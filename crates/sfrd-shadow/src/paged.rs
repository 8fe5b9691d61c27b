//! Lock-free paged shadow memory with zero-store same-epoch paths.
//!
//! ## Page-table layout (TSan-style direct mapping, no hashing)
//!
//! An address resolves to its [`LocEntry`] slot in O(1) through a radix
//! page table — no hash, no probe sequence:
//!
//! ```text
//! addr bits:  [ 63..47 | 46..36 | 35..25 | 24..14 |  13..3  | 2..0 ]
//!                 ▲      root     mid      leaf    PAGE_SHIFT SLOT granule
//!              fallback  idx      idx      idx     slot idx  (8-byte span)
//! ```
//!
//! * the directory is three levels of **nodes**, each 2^11 `AtomicPtr`s
//!   (16 KiB): the **root** is eager and maps the canonical 47-bit user
//!   address space, a **mid** node maps 64 GiB, a **leaf** node maps
//!   32 MiB — 2^11 pages;
//! * mid and leaf nodes and **pages** (2^11 [`LocEntry`] slots, one page
//!   maps 16 KiB) are allocated on first touch from [`AppendArena`]s and
//!   published with `AtomicPtr` compare-exchange, all three through one
//!   routine (`descend`) — a racing loser's allocation simply stays in the
//!   arena (it is never published, is reclaimed on drop, and is counted by
//!   `heap_bytes`). A history that has seen one access holds the root, one
//!   mid, one leaf and one page: 48 KiB of directory and 64 KiB of slots;
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
//! [`PagedHistory::heap_bytes`] is a sum of counters, not a sweep: nodes
//! and pages by their arenas' lengths, reader spills by a byte count that
//! a write section adds to whenever it grows a spill's capacity.
//!
//! ## One slot, 32 bytes
//!
//! A slot is the packed word and the location's entry fields, nothing
//! else (`#[repr(C, align(32))]`; DESIGN.md §6 has the byte offsets). For
//! the detectors' one-word position (`sfrd_reach::Pos`) it is 32 bytes —
//! two slots per cache line, none straddling one, and a 2 048-slot page
//! is exactly 64 KiB:
//!
//! ```text
//! packed 8 | meta 4 | fut 4 | inline[LAST] 4 | inline[FIRST] 4 | writer 4 | spill 4
//!
//! packed: [ 63..5: section tag | 4..2: addr & 7 | 1: claimed | 0: busy ]
//! ```
//!
//! * The section tag is the seqlock's sequence: every write section that
//!   releases a slot adds one to it. It is 59 bits wide, so a snapshot
//!   window would have to span 2^59 sections for the tag to come back to
//!   the value it opened at.
//! * The claiming address is the slot's own 8-byte span plus the three
//!   `addr & 7` bits and a claimed bit, also in the packed word — so the
//!   lock-free read learns whether the slot is its address's from the same
//!   load that opens its window.
//! * Readers past the two inline ones spill to a history-owned arena; the
//!   slot names its spill by a 4-byte index.
//!
//! Nothing is mirrored: a write section hands its closure a [`LocEntry`]
//! view of the slot's own fields, and the lock-free snapshot copies from
//! the same slot.
//!
//! State-changing accesses open a *seqlock-style write section*: CAS the
//! busy bit (contended retries are counted in
//! [`PagedHistory::cas_retries`]), mutate the entry, and release by
//! publishing a new packed word — the tag incremented, the claim. Any
//! interleaved section therefore changes the packed word, which is what
//! makes the snapshot's validation sound.
//!
//! ## The zero-store same-epoch paths
//!
//! One private routine, `PageCursor::validated`, checks the packed word's
//! claim against the queried address, copies the slot's fields it needs
//! (the readers' inline head, the writer — never the spill) and discards
//! the copy unless a second load of the packed word agrees with the first
//! and showed the slot idle ([`PageCursor::snapshot`] is its public face).
//! A rule that needs a second field only when the first did not decide
//! copies it later in the same window and re-loads the word again. On a
//! validated snapshot the cursor answers *"would the write section leave
//! this entry unchanged and report nothing?"* with **zero stores, zero
//! CAS, no lock**:
//!
//! * [`fast_read`](PageCursor::fast_read) under [`ReaderPolicy::All`] —
//!   *read-same-epoch*: the most recently recorded reader equals the
//!   reading position;
//! * `fast_read` under [`ReaderPolicy::PerFutureLR`] — the reading
//!   future's inline (leftmost, rightmost) pair would not move and the
//!   caller's writer check passes;
//! * `fast_read` under either policy — *read-by-current-writer*: the
//!   writer equals the reading position, which
//!   [`LocEntry::retain_reader`] does not retain;
//! * [`fast_write`](PageCursor::fast_write) — *write-same-epoch*: the
//!   writer equals the writing position and no reader is retained.
//!
//! Together: after a position's first write to an address, every later
//! read and write it makes there is answered without a store.
//!
//! Anything else — busy bit, changed word, another exact address owning
//! the span, a different last reader, a spilled triple — returns `false`
//! and the caller takes [`locked`](PageCursor::locked), which re-derives
//! everything inside the section. DESIGN.md §6 gives the soundness
//! argument.
//!
//! The fields are read with `read_volatile` and validated against the
//! packed word before use, the standard seqlock idiom: a torn copy is
//! possible but is discarded before any field is interpreted.

use sfrd_runtime::sync::{fence, AtomicPtr, AtomicU64, AtomicUsize, Mutex, Ordering};
use std::cell::UnsafeCell;
use std::collections::HashMap;
use std::mem::MaybeUninit;
use std::ptr::addr_of;

use sfrd_om::AppendArena;

use crate::{Head, LocEntry, LocState, ReaderPolicy, Readers, SpillArena, SpillRef};

/// log2 of a slot's address span: one slot per 8-byte word, which is one
/// instrumented `ShadowArray`/`ShadowCell` cell whatever its element type,
/// so contiguous arrays fill pages densely and never collide within a span.
pub const SLOT_SHIFT: u32 = 3;
/// log2 slots per page: one page maps `1 << (PAGE_SHIFT + SLOT_SHIFT)`
/// bytes of address space (16 KiB).
pub const PAGE_SHIFT: u32 = 11;
/// Slots per page.
pub const PAGE_SLOTS: usize = 1 << PAGE_SHIFT;
/// log2 pointers per directory node: a node is 16 KiB.
const NODE_BITS: u32 = 11;
const NODE_LEN: usize = 1 << NODE_BITS;
/// Lowest word bit of a leaf node's index (above the slot index).
const LEAF_SHIFT: u32 = PAGE_SHIFT;
/// Lowest word bit of a mid node's index.
const MID_SHIFT: u32 = LEAF_SHIFT + NODE_BITS;
/// Lowest word bit of the root's index.
const ROOT_SHIFT: u32 = MID_SHIFT + NODE_BITS;
/// Address bits covered by the direct-mapped table (the canonical 47-bit
/// user address space); anything above goes to the locked fallback map.
pub const MAPPED_BITS: u32 = SLOT_SHIFT + ROOT_SHIFT + NODE_BITS;

// Packed-word layout (module docs).
const BUSY: u64 = 1;
/// Set by the first section on the slot, with `addr & 7` above it.
const CLAIMED: u64 = 1 << 1;
const SUB_SHIFT: u32 = 2;
const SUB_MASK: u64 = ((1 << SLOT_SHIFT) - 1) << SUB_SHIFT;
const OWNER_MASK: u64 = CLAIMED | SUB_MASK;
const TAG_SHIFT: u32 = SUB_SHIFT + SLOT_SHIFT;
/// Every bit above the claim.
const TAG_BITS: u32 = u64::BITS - TAG_SHIFT;
const TAG_MASK: u64 = ((1 << TAG_BITS) - 1) << TAG_SHIFT;

/// The claim `addr` holds on its slot: the packed word's owner bits.
#[inline]
fn claim(addr: u64) -> u64 {
    CLAIMED | (addr << SUB_SHIFT) & SUB_MASK
}

#[inline]
fn pack(tag: u64, owner: u64) -> u64 {
    ((tag << TAG_SHIFT) & TAG_MASK) | owner
}

/// Everything a slot holds besides its packed word: a [`LocEntry`]'s
/// fields, with the readers' spill named by index.
#[repr(C)]
struct Body<P> {
    head: Head<P>,
    writer: Option<P>,
    /// The readers' spill: index + 1 into [`PagedHistory::spills`], 0 for
    /// none. Only ever touched inside the slot's write section.
    spill: u32,
}

/// One location's slot: the packed word (seqlock: busy bit, section tag,
/// claim) and the entry's fields — the only copy of them.
#[repr(C, align(32))]
struct Slot<P: Copy> {
    packed: AtomicU64,
    body: UnsafeCell<Body<P>>,
}

// SAFETY: the body is only written, and its spill index only followed,
// inside the busy-bit write section (exclusive by CAS). Outside it the
// body is read only by `PageCursor::validated`, which copies fields with
// `read_volatile` and discards the copy unless the packed word proves no
// section overlapped it. `P: Send` because a position stored by one thread
// is read by others.
unsafe impl<P: Copy + Send> Sync for Slot<P> {}
// SAFETY: as above; the slot holds plain data.
unsafe impl<P: Copy + Send> Send for Slot<P> {}

impl<P: Copy> Slot<P> {
    fn new(policy: ReaderPolicy) -> Self {
        Slot {
            packed: AtomicU64::new(0),
            body: UnsafeCell::new(Body {
                head: Head::new(policy),
                writer: None,
                spill: 0,
            }),
        }
    }
}

/// A page: [`PAGE_SLOTS`] direct-mapped slots.
type Page<P> = [Slot<P>; PAGE_SLOTS];

/// A directory node: [`NODE_LEN`] child links, each null until its child
/// is published. A link points straight at the child's array, so each
/// level costs one load.
type Node<C> = [AtomicPtr<C>; NODE_LEN];
/// The bottom directory level: page links for 32 MiB of address space.
type Leaf<P> = Node<Page<P>>;
/// The middle level: leaf links for 64 GiB.
type Mid<P> = Node<Leaf<P>>;

/// `N` values built by `make`, in one heap array.
fn boxed<T, const N: usize>(make: impl FnMut() -> T) -> Box<[T; N]> {
    match std::iter::repeat_with(make)
        .take(N)
        .collect::<Box<[T]>>()
        .try_into()
    {
        Ok(array) => array,
        Err(_) => unreachable!("exactly N values were collected"),
    }
}

/// An empty directory node.
fn node<C>() -> Box<Node<C>> {
    boxed(|| AtomicPtr::new(std::ptr::null_mut()))
}

/// The link `node` holds for `word` (an address right-shifted by
/// [`SLOT_SHIFT`]) on the level whose index starts at word bit `shift`.
#[inline(always)]
fn link<C>(node: &Node<C>, word: u64, shift: u32) -> &AtomicPtr<C> {
    &node[(word >> shift) as usize & (NODE_LEN - 1)]
}

/// `node`'s published children, by index.
fn children<C>(node: &Node<C>) -> impl Iterator<Item = (usize, &C)> {
    node.iter().enumerate().filter_map(|(i, link)| {
        let ptr = link.load(Ordering::Acquire);
        // SAFETY: a published link names an array boxed in an arena of
        // the same history, which never moves or frees it before drop.
        (!ptr.is_null()).then(|| (i, unsafe { &*ptr }))
    })
}

/// The child behind `link`. When the link is null and `alloc` is set, a
/// child built by `make` is pushed to `arena` and published with a
/// compare-exchange, counted in `published`; a loser of that race leaves
/// its child in the arena (never referenced, freed with it) and takes the
/// winner's. Every level below the root goes through here.
#[inline(always)]
fn descend<'a, C>(
    link: &AtomicPtr<C>,
    arena: &'a AppendArena<Box<C>>,
    alloc: bool,
    published: &AtomicU64,
    make: impl FnOnce() -> Box<C>,
) -> Option<&'a C> {
    let ptr = link.load(Ordering::Acquire);
    if !ptr.is_null() {
        // SAFETY: a published link names an array boxed in `arena`, which
        // never moves or frees it before drop.
        return Some(unsafe { &*ptr });
    }
    if !alloc {
        return None;
    }
    let fresh: *const C = &**arena.get(arena.push(make()));
    match link.compare_exchange(
        std::ptr::null_mut(),
        fresh.cast_mut(),
        Ordering::AcqRel,
        Ordering::Acquire,
    ) {
        Ok(_) => {
            published.fetch_add(1, Ordering::Relaxed);
            // SAFETY: as above, `fresh` is boxed in `arena`.
            Some(unsafe { &*fresh })
        }
        // SAFETY: as above.
        Err(winner) => Some(unsafe { &*winner }),
    }
}

/// The lock-free paged access history (see module docs).
pub struct PagedHistory<P: Copy + Send> {
    /// The eager top directory level: mid-node pointers.
    root: Box<Node<Mid<P>>>,
    mids: AppendArena<Box<Mid<P>>>,
    leaves: AppendArena<Box<Leaf<P>>>,
    pages: AppendArena<Box<Page<P>>>,
    /// Reader spills of mapped slots, by the index a slot stores.
    spills: SpillArena<P>,
    /// Bytes of spill capacity, mapped and fallback entries alike: a
    /// write section adds to it whenever it grows a spill.
    spill_bytes: AtomicUsize,
    policy: ReaderPolicy,
    /// Addresses above [`MAPPED_BITS`] and sub-word collisions: the locked
    /// escape hatch. Its keys come from the program under test (or a
    /// journal), so it keeps std's randomly seeded hasher: a multiplicative
    /// one sends addresses that agree in their low bits down one probe
    /// sequence, and a strided input turns every lookup linear.
    fallback: Mutex<HashMap<u64, LocState<P>>>,
    /// Mutex acquisitions — fallback-map only; the mapped path never locks.
    lock_ops: AtomicU64,
    /// Accesses answered from a validated snapshot (same-epoch reads and
    /// writes, LR no-op reads); folded in once per cursor.
    fast_hits: AtomicU64,
    /// Write-section CAS retries + snapshots discarded (busy or changed
    /// packed word).
    cas_retries: AtomicU64,
    /// Pages published into the directory.
    page_allocs: AtomicU64,
    /// Mid and leaf nodes published into the directory.
    node_allocs: AtomicU64,
}

impl<P: Copy + Send> PagedHistory<P> {
    /// Create an empty paged history: the root node and nothing else.
    pub fn with_policy(policy: ReaderPolicy) -> Self {
        Self {
            root: node(),
            mids: AppendArena::new(),
            leaves: AppendArena::new(),
            pages: AppendArena::new(),
            spills: AppendArena::new(),
            spill_bytes: AtomicUsize::new(0),
            policy,
            fallback: Mutex::new(HashMap::new()),
            lock_ops: AtomicU64::new(0),
            fast_hits: AtomicU64::new(0),
            cas_retries: AtomicU64::new(0),
            page_allocs: AtomicU64::new(0),
            node_allocs: AtomicU64::new(0),
        }
    }

    /// Fallback-map mutex acquisitions (the mapped path is lock-free).
    pub fn lock_ops(&self) -> u64 {
        self.lock_ops.load(Ordering::Relaxed)
    }

    /// Accesses completed from a validated snapshot with zero stores:
    /// same-epoch reads and writes under either policy, plus
    /// `PerFutureLR`'s no-op reads. A cursor folds its hits in when it is
    /// dropped.
    pub fn fast_hits(&self) -> u64 {
        self.fast_hits.load(Ordering::Relaxed)
    }

    /// Write-section CAS retries plus discarded snapshots (slot busy, or
    /// packed word changed under the copy) — the contention signal of the
    /// per-location seqlock.
    pub fn cas_retries(&self) -> u64 {
        self.cas_retries.load(Ordering::Relaxed)
    }

    /// Pages published into the directory.
    pub fn page_allocs(&self) -> u64 {
        self.page_allocs.load(Ordering::Relaxed)
    }

    /// Directory nodes published below the root (mid and leaf nodes).
    pub fn node_allocs(&self) -> u64 {
        self.node_allocs.load(Ordering::Relaxed)
    }

    /// A page cursor: batch flushers iterate accesses through one cursor so
    /// runs of same-page addresses skip the three directory loads.
    pub fn cursor(&self) -> PageCursor<'_, P> {
        PageCursor {
            hist: self,
            key: u64::MAX,
            page: None,
            fast_hits: 0,
            discarded: 0,
        }
    }

    /// Per-access entry point (no cursor reuse): run `f` on the location's
    /// entry inside its write section.
    pub fn locked<R>(&self, addr: u64, f: impl FnOnce(&mut LocEntry<'_, P>) -> R) -> R {
        self.cursor().locked(addr, f)
    }

    /// Resolve (optionally allocating) the page containing `word` (an
    /// address right-shifted by [`SLOT_SHIFT`]). Caller guarantees
    /// `word < 1 << (MAPPED_BITS - SLOT_SHIFT)`.
    fn page_for(&self, word: u64, alloc: bool) -> Option<&Page<P>> {
        debug_assert!(word >> (ROOT_SHIFT + NODE_BITS) == 0);
        let nodes = &self.node_allocs;
        let mid = descend(
            link(&self.root, word, ROOT_SHIFT),
            &self.mids,
            alloc,
            nodes,
            node,
        )?;
        let leaf = descend(link(mid, word, MID_SHIFT), &self.leaves, alloc, nodes, node)?;
        descend(
            link(leaf, word, LEAF_SHIFT),
            &self.pages,
            alloc,
            &self.page_allocs,
            || boxed(|| Slot::new(self.policy)),
        )
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
                // Seqlock writer side: the busy bit must be visible before
                // any store of the section is. Pairs with the acquire
                // fence in `PageCursor::validated` — a copy that caught one
                // of this section's stores re-loads a busy or newer word.
                fence(Ordering::Release);
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

    /// Run `f` on the view of a slot's entry. Caller holds the busy bit.
    #[inline(always)]
    fn in_section<R>(&self, slot: &Slot<P>, f: impl FnOnce(&mut LocEntry<'_, P>) -> R) -> R {
        // SAFETY: busy bit held — exclusive access to the body.
        let body = unsafe { &mut *slot.body.get() };
        f(&mut LocEntry {
            readers: Readers {
                head: &mut body.head,
                spill: SpillRef::Indexed {
                    index: &mut body.spill,
                    arena: &self.spills,
                },
                bytes: Some(&self.spill_bytes),
            },
            writer: &mut body.writer,
        })
    }

    fn fallback_locked<R>(&self, addr: u64, f: impl FnOnce(&mut LocEntry<'_, P>) -> R) -> R {
        self.lock_ops.fetch_add(1, Ordering::Relaxed);
        let mut map = self.fallback.lock();
        let policy = self.policy;
        let state = map.entry(addr).or_insert_with(|| LocState::new(policy));
        f(&mut state.entry_with(Some(&self.spill_bytes)))
    }

    fn is_tracked(e: &LocEntry<'_, P>) -> bool {
        e.writer.is_some() || !e.readers.is_empty()
    }

    /// Visit every touched `(addr, entry)` pair. Quiescent use only
    /// (diagnostics / tests / report): each slot is visited inside its
    /// write section, so concurrent mutators are excluded per slot but the
    /// overall sweep is not a consistent cut. The sweep is read-only: it
    /// releases each slot with the packed word it found, so snapshots
    /// taken across it stay valid.
    pub fn for_each_entry(&self, mut f: impl FnMut(u64, &LocEntry<'_, P>)) {
        for (root_idx, mid) in children(&self.root) {
            for (mid_idx, leaf) in children(mid) {
                for (leaf_idx, page) in children(leaf) {
                    let page_no = (root_idx << NODE_BITS | mid_idx) << NODE_BITS | leaf_idx;
                    let page_word = (page_no as u64) << PAGE_SHIFT;
                    for (slot_idx, slot) in page.iter().enumerate() {
                        let prev = self.lock_slot(slot);
                        if prev & CLAIMED != 0 {
                            let word = page_word | slot_idx as u64;
                            let addr = word << SLOT_SHIFT | (prev & SUB_MASK) >> SUB_SHIFT;
                            self.in_section(slot, |e| {
                                if Self::is_tracked(e) {
                                    f(addr, e);
                                }
                            });
                        }
                        slot.packed.store(prev, Ordering::Release);
                    }
                }
            }
        }
        let mut map = self.fallback.lock();
        for (&addr, state) in map.iter_mut() {
            f(addr, &state.entry());
        }
    }

    /// Every allocated slot's packed word, in directory order.
    #[cfg(test)]
    pub(crate) fn packed_words(&self) -> Vec<u64> {
        let mut words = Vec::new();
        for idx in 0..self.pages.len() {
            let page = self.pages.get(idx);
            words.extend(page.iter().map(|s| s.packed.load(Ordering::Relaxed)));
        }
        words
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

    /// Heap bytes, from counters alone: every directory node (the root,
    /// and each mid and leaf node allocated, published or stranded by a
    /// CAS race), every page's slots, the three arenas' own buckets, the
    /// spill arena, the spills' capacity (kept by the write sections that
    /// grow it) and the fallback map. No slot is visited.
    pub fn heap_bytes(&self) -> usize {
        let nodes = 1 + self.mids.len() + self.leaves.len();
        let pages = self.pages.len();
        let map = self.fallback.lock().capacity();
        nodes * std::mem::size_of::<Node<()>>()
            + pages * std::mem::size_of::<Page<P>>()
            + self.mids.heap_bytes()
            + self.leaves.heap_bytes()
            + self.pages.heap_bytes()
            + self.spills.heap_bytes()
            + self.spill_bytes.load(Ordering::Relaxed)
            + map * (std::mem::size_of::<(u64, LocState<P>)>() + 8)
    }
}

/// A packed-word-validated copy of one slot's pointer-free fields: what
/// the location's entry held at an instant when no write section was
/// open. Only a slot owned by the queried exact address yields one.
pub struct SlotSnapshot<P> {
    writer: Option<P>,
    head: Head<P>,
}

impl<P: Copy> SlotSnapshot<P> {
    /// The last writer.
    pub fn writer(&self) -> Option<P> {
        self.writer
    }

    /// The most recently recorded reader ([`ReaderPolicy::All`] only).
    pub fn last_reader(&self) -> Option<P> {
        self.head.last()
    }
}

/// Volatile copy of a slot's writer, for a read window. `Option<P>` is
/// not valid for every bit pattern, so it stays `MaybeUninit` until the
/// window has been rechecked.
///
/// # Safety
/// `b` points to the body of a live slot.
#[inline(always)]
unsafe fn copy_writer<P: Copy>(b: *const Body<P>) -> MaybeUninit<Option<P>> {
    addr_of!((*b).writer)
        .cast::<MaybeUninit<Option<P>>>()
        .read_volatile()
}

/// The open half of the lock-free read protocol: a slot whose packed word
/// read idle, and that word. Field copies taken afterwards are kept only
/// if the word still reads `idle` ([`PageCursor::recheck`]).
struct Window<'a, P: Copy> {
    slot: &'a Slot<P>,
    idle: u64,
}

/// A resolved-page memo over a [`PagedHistory`]: consecutive accesses to
/// the same page (the common case for array scans) reuse the page pointer
/// instead of re-walking the three directory levels. It also tallies its
/// snapshot hits and discards locally and folds them into the history's
/// counters when dropped — one atomic add per batch, not per access.
pub struct PageCursor<'a, P: Copy + Send> {
    hist: &'a PagedHistory<P>,
    /// `(addr >> SLOT_SHIFT) >> PAGE_SHIFT` of the cached page
    /// (`u64::MAX` = none).
    key: u64,
    page: Option<&'a Page<P>>,
    fast_hits: u64,
    discarded: u64,
}

impl<P: Copy + Send> Drop for PageCursor<'_, P> {
    fn drop(&mut self) {
        if self.fast_hits != 0 {
            self.hist
                .fast_hits
                .fetch_add(self.fast_hits, Ordering::Relaxed);
        }
        if self.discarded != 0 {
            self.hist
                .cas_retries
                .fetch_add(self.discarded, Ordering::Relaxed);
        }
    }
}

impl<'a, P: Copy + Send> PageCursor<'a, P> {
    fn slot(&mut self, addr: u64, alloc: bool) -> Option<&'a Slot<P>> {
        let word = addr >> SLOT_SHIFT;
        let key = word >> PAGE_SHIFT;
        if self.key != key {
            self.page = self.hist.page_for(word, alloc);
            self.key = if self.page.is_some() { key } else { u64::MAX };
        }
        self.page.map(|p| &p[word as usize & (PAGE_SLOTS - 1)])
    }

    /// Open a read window on `addr`'s slot. `None` when there is nothing
    /// there or nothing to trust: address outside the mapped range, page
    /// not allocated, or a write section open.
    #[inline(always)]
    fn window(&mut self, addr: u64) -> Option<Window<'a, P>> {
        if addr >> MAPPED_BITS != 0 {
            return None;
        }
        let slot = self.slot(addr, false)?;
        let idle = slot.packed.load(Ordering::Acquire);
        if idle & BUSY != 0 {
            self.discarded += 1;
            return None;
        }
        Some(Window { slot, idle })
    }

    /// Run `f` on the location's entry inside its seqlock write section
    /// (creating the page and claiming the slot on first touch). No mutex
    /// is taken unless the address lies outside the mapped range or its
    /// slot is already claimed by a different exact address (sub-word
    /// collision) — both divert to the fallback map.
    pub fn locked<R>(&mut self, addr: u64, f: impl FnOnce(&mut LocEntry<'_, P>) -> R) -> R {
        if addr >> MAPPED_BITS != 0 {
            return self.hist.fallback_locked(addr, f);
        }
        let slot = self
            .slot(addr, true)
            .expect("mapped-range page allocation cannot fail");
        let hist = self.hist;
        let prev = hist.lock_slot(slot);
        let owner = claim(addr);
        if prev & CLAIMED != 0 && prev & OWNER_MASK != owner {
            // Exact-address discipline: never merge two addresses into one
            // entry. Release the slot untouched and serve from the map.
            slot.packed.store(prev, Ordering::Release);
            return hist.fallback_locked(addr, f);
        }
        let r = hist.in_section(slot, f);
        // Close the section: tag + 1, the claim.
        let tag = ((prev & TAG_MASK) >> TAG_SHIFT).wrapping_add(1);
        slot.packed.store(pack(tag, owner), Ordering::Release);
        r
    }

    /// The closing half of the read protocol: run `copy` on the window's
    /// slot and keep what it returns only if the packed word still reads
    /// what it read when the window opened.
    ///
    /// A write section may be storing to the slot while `copy` runs, so
    /// `copy` must only `read_volatile` fields into types that are valid
    /// for every bit pattern, and must not follow the spill index. What it
    /// returns is meaningful exactly when this returns `Some`: every
    /// section changes the packed word on release, so an unchanged idle
    /// word means no section overlapped the window up to here. One window
    /// may be rechecked more than once — a rule that reads a second field
    /// only when the first did not decide copies it inside the same window
    /// and rechecks again.
    #[inline(always)]
    fn recheck<T>(&mut self, w: &Window<'_, P>, copy: impl FnOnce(&Slot<P>) -> T) -> Option<T> {
        let copied = copy(w.slot);
        fence(Ordering::Acquire);
        if w.slot.packed.load(Ordering::Relaxed) != w.idle {
            self.discarded += 1;
            return None;
        }
        Some(copied)
    }

    /// The one lock-free read protocol of a slot: open a
    /// [`window`](Self::window) on `addr`'s slot, check that its packed
    /// word carries `addr`'s claim — a span claimed by a different exact
    /// address (whose entry lives in the fallback map) or by none is not
    /// this address's entry — and run `copy` on the body, keeping what it
    /// returns only if the [`recheck`](Self::recheck) passes, which also
    /// re-validates the claim. The window comes back with the copy, for a
    /// rule that may need a second field.
    // `inline(always)`, on the whole protocol: with plain `inline` the
    // batch loop kept this as a call and sw's `full` at one worker
    // measured 0.18 s instead of 0.13 s.
    #[inline(always)]
    fn validated<T>(
        &mut self,
        addr: u64,
        copy: impl FnOnce(*const Body<P>) -> T,
    ) -> Option<(T, Window<'a, P>)> {
        let w = self.window(addr)?;
        if w.idle & OWNER_MASK != claim(addr) {
            return None;
        }
        let copied = self.recheck(&w, |slot| copy(slot.body.get()))?;
        Some((copied, w))
    }

    /// Validated copy of every pointer-free field of `addr`'s entry: the
    /// writer and the readers' inline head.
    pub fn snapshot(&mut self, addr: u64) -> Option<SlotSnapshot<P>> {
        // SAFETY: `Head` is integers and `MaybeUninit`, valid for every bit
        // pattern; see `recheck` for the protocol.
        let ((head, writer), _) = self.validated(addr, |b| unsafe {
            (addr_of!((*b).head).read_volatile(), copy_writer(b))
        })?;
        Some(SlotSnapshot {
            // SAFETY: validated, so these are the bytes of the `Option<P>`
            // the last write section left behind.
            writer: unsafe { writer.assume_init() },
            head,
        })
    }

    /// The zero-store read. Returns `true` iff a validated snapshot proves
    /// that the write section would leave the entry unchanged and report
    /// nothing for a read at `(future, pos)` — in which case nothing was
    /// written anywhere and the caller is done. On `false` the caller must
    /// take [`locked`](Self::locked) and run the full check.
    ///
    /// * [`ReaderPolicy::All`] — **read-same-epoch**: the most recently
    ///   recorded reader is `pos`. No write intervened (it would have
    ///   cleared the readers), so the writer is the one `pos` was checked
    ///   against when it was recorded, and [`Readers::record`] would drop
    ///   the repeat. The comparators and `writer_ok` are not consulted.
    /// * either policy — **read-by-current-writer**: the writer is `pos`.
    ///   The section would find the writer serial (equal positions, no
    ///   query) and [`LocEntry::retain_reader`] would retain nothing.
    ///   Under `All` the writer is copied only when read-same-epoch did
    ///   not decide, inside the same window, so that rule still touches
    ///   the slot's first 24 bytes — packed word and the readers' inline
    ///   head — and no more.
    /// * [`ReaderPolicy::PerFutureLR`] — `future`'s inline (leftmost,
    ///   rightmost) pair is unchanged under the LR update rule, and
    ///   `writer_ok(writer)` accepts the snapshot's writer (typically: a
    ///   reachability query — zero-store on the entry). Returning `false`
    ///   there (a race, or an unprovable verdict) routes the access to the
    ///   locked path, which re-derives and reports. A triple past the
    ///   inline one bails.
    ///
    /// [`Readers::record`]: crate::Readers::record
    #[allow(clippy::too_many_arguments)]
    pub fn fast_read(
        &mut self,
        addr: u64,
        future: u32,
        pos: P,
        eng_less: impl Fn(&P, &P) -> bool,
        heb_less: impl Fn(&P, &P) -> bool,
        pos_precedes: impl Fn(&P, &P) -> bool,
        writer_ok: impl FnOnce(Option<P>) -> bool,
    ) -> bool
    where
        P: PartialEq,
    {
        // An absent page/empty entry means the read must record — slow path.
        let hit = match self.hist.policy {
            ReaderPolicy::All => {
                // SAFETY: `Head` is integers and `MaybeUninit`, valid for
                // every bit pattern; see `recheck` for the protocol.
                let head = self.validated(addr, |b| unsafe { addr_of!((*b).head).read_volatile() });
                head.is_some_and(|(head, w)| {
                    head.last() == Some(pos)
                        || self
                            // SAFETY: the slot is live; the copy is
                            // `MaybeUninit` until the recheck has passed.
                            .recheck(&w, |slot| unsafe { copy_writer(slot.body.get()) })
                            // SAFETY: rechecked, so these are the bytes of
                            // the `Option<P>` a finished section left.
                            .is_some_and(|writer| unsafe { writer.assume_init() } == Some(pos))
                })
            }
            ReaderPolicy::PerFutureLR => self.snapshot(addr).is_some_and(|snap| {
                snap.writer == Some(pos)
                    || snap.head.inline_lr(future).is_some_and(|(l, r)| {
                        // Value-level no-op test of Readers::record: the
                        // slot moves iff the stored reader precedes the new
                        // one (serial-successor advance) or the new one is
                        // further left/right — and an assignment of an
                        // equal value is no move.
                        let left_stable =
                            l == pos || !(pos_precedes(&l, &pos) || eng_less(&pos, &l));
                        let right_stable =
                            r == pos || !(pos_precedes(&r, &pos) || heb_less(&pos, &r));
                        left_stable && right_stable && writer_ok(snap.writer)
                    })
            }),
        };
        self.fast_hits += u64::from(hit);
        hit
    }

    /// The zero-store write — **write-same-epoch**: `true` iff a validated
    /// snapshot shows `pos` is already the writer and no reader is
    /// retained, so the write section would check nothing, report nothing
    /// and re-install the same writer. Skipping it stores nothing, so the
    /// packed word stays as it was. On `false` take
    /// [`locked`](Self::locked).
    pub fn fast_write(&mut self, addr: u64, pos: P) -> bool
    where
        P: PartialEq,
    {
        let hit = self
            .snapshot(addr)
            .is_some_and(|snap| snap.head.count() == 0 && snap.writer == Some(pos));
        self.fast_hits += u64::from(hit);
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfrd_reach::Pos;
    use std::mem::{align_of, offset_of, size_of};

    /// The slot's budget on the detectors' one-word position: 32 bytes and
    /// 32-aligned — two slots per cache line, none straddling one, a page
    /// exactly 64 KiB — and the offsets DESIGN.md §6 draws.
    #[test]
    fn slot_fits_the_budget() {
        assert_eq!(size_of::<Option<Pos>>(), 4);
        assert_eq!(size_of::<Slot<Pos>>(), 32);
        assert_eq!(align_of::<Slot<Pos>>(), 32);
        assert_eq!(PAGE_SLOTS * size_of::<Slot<Pos>>(), 64 << 10);
        // packed 8 | meta 4 | fut 4 | inline[LAST] 4 | inline[FIRST] 4 |
        // writer 4 | spill 4. Read-same-epoch reads packed, meta and the
        // last reader: slot bytes 0..20.
        let body = offset_of!(Slot<Pos>, body);
        assert_eq!((offset_of!(Slot<Pos>, packed), body), (0, 8));
        let head = body + offset_of!(Body<Pos>, head);
        assert_eq!(head + offset_of!(Head<Pos>, meta), 8);
        assert_eq!(head + offset_of!(Head<Pos>, fut), 12);
        let inline = head + offset_of!(Head<Pos>, inline);
        assert_eq!(inline + crate::LAST * size_of::<Pos>(), 16);
        assert_eq!(inline + crate::FIRST * size_of::<Pos>(), 20);
        assert_eq!(body + offset_of!(Body<Pos>, writer), 24);
        assert_eq!(body + offset_of!(Body<Pos>, spill), 28);
    }

    /// The claim bits hold the exact address's low bits, and the tag takes
    /// every bit above them without overlap.
    #[test]
    fn packed_word_fields_do_not_overlap() {
        assert_eq!(TAG_BITS, 59);
        let word = pack(u64::MAX, claim(7));
        assert_eq!(word | BUSY, u64::MAX);
        assert_eq!(word & TAG_MASK, TAG_MASK);
        assert_eq!(word & OWNER_MASK, claim(0xFF));
        assert_ne!(claim(0x40), claim(0x44));
        assert_eq!(claim(0x40), claim(0x48), "one claim per 8-byte span");
        assert_eq!(BUSY & (OWNER_MASK | TAG_MASK), 0);
        assert_eq!(OWNER_MASK & TAG_MASK, 0);
        // A 23-bit tag came back to its value after 2^23 sections.
        assert_ne!(pack(1 << 23, claim(0)), pack(0, claim(0)));
    }

    /// The tag is the seqlock's whole sequence: a section that only
    /// records a reader, with no writer installed, still publishes a new
    /// packed word on its slot and on no other, so a window held open
    /// across it is discarded.
    #[test]
    fn a_reader_only_section_changes_the_packed_word() {
        let less = |a: &u64, b: &u64| a < b;
        for policy in [ReaderPolicy::All, ReaderPolicy::PerFutureLR] {
            let h: PagedHistory<u64> = PagedHistory::with_policy(policy);
            h.locked(0x40, |e| e.begin_write_epoch(7));
            let mut cur = h.cursor();
            for reader in [11, 13, 2] {
                let mut before = h.packed_words();
                let w = cur.window(0x40).expect("idle");
                h.locked(0x40, |e| e.readers.record(0, reader, less, less, less));
                let after = h.packed_words();
                assert_ne!(after[8], before[8], "{policy:?}: reader {reader}");
                before[8] = after[8];
                assert_eq!(after, before, "{policy:?}: another slot changed");
                assert!(cur.recheck(&w, |_| ()).is_none(), "{policy:?}");
            }
            assert_eq!(cur.snapshot(0x40).and_then(|s| s.writer()), Some(7));
        }
    }

    /// What `heap_bytes` summed before it kept a spill count: the same
    /// directory, page and arena terms, and every location's spill
    /// capacity found by a sweep.
    fn swept_heap_bytes<P: Copy + Send>(h: &PagedHistory<P>) -> usize {
        let nodes = 1 + h.mids.len() + h.leaves.len();
        let mut bytes = nodes * size_of::<Node<()>>()
            + h.pages.len() * size_of::<Page<P>>()
            + h.mids.heap_bytes()
            + h.leaves.heap_bytes()
            + h.pages.heap_bytes()
            + h.spills.heap_bytes();
        h.for_each_entry(|_, e| bytes += e.readers.heap_bytes());
        bytes + h.fallback.lock().capacity() * (size_of::<(u64, LocState<P>)>() + 8)
    }

    /// The counted total is the swept one, exactly: random reads and
    /// writes from two threads, under both policies, on mapped words in
    /// several nodes, their sub-word neighbours and addresses above the
    /// mapped range — enough readers per location to spill, and writes
    /// that clear them (a cleared spill keeps its capacity).
    #[test]
    fn counted_heap_bytes_equal_the_sweep() {
        type Pos = (u32, u32);
        let less = |a: &Pos, b: &Pos| a.0 < b.0;
        let precedes = |a: &Pos, b: &Pos| a.0 < b.0 && a.1 < b.1;
        let words = [0x40, 0x48, (1 << 14) + 8, (1 << 25) + 64, (1 << 36) + 8];
        let addrs: Vec<u64> = words
            .iter()
            .flat_map(|&w| [w, w + 4])
            .chain([1 << MAPPED_BITS, (1 << 50) + 8])
            .collect();
        for policy in [ReaderPolicy::All, ReaderPolicy::PerFutureLR] {
            for seed in 1..=4u64 {
                let h: PagedHistory<Pos> = PagedHistory::with_policy(policy);
                std::thread::scope(|s| {
                    for t in 0..2u64 {
                        let (h, addrs) = (&h, &addrs);
                        s.spawn(move || {
                            let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) + t;
                            for _ in 0..4_000 {
                                x = x
                                    .wrapping_mul(6_364_136_223_846_793_005)
                                    .wrapping_add(1_442_695_040_888_963_407);
                                let r = (x >> 33) as u32;
                                let addr = addrs[r as usize % addrs.len()];
                                let p = (r >> 8 & 0xff, r >> 16 & 0xff);
                                h.locked(addr, |e| {
                                    if r.is_multiple_of(16) {
                                        e.begin_write_epoch(p);
                                    } else {
                                        e.retain_reader(r >> 4 & 7, p, less, less, precedes);
                                    }
                                });
                            }
                        });
                    }
                });
                assert!(h.spill_bytes.load(Ordering::Relaxed) > 0, "nothing spilled");
                assert!(h.lock_ops() > 0, "no fallback entry");
                assert_eq!(
                    h.heap_bytes(),
                    swept_heap_bytes(&h),
                    "{policy:?}, seed {seed}"
                );
            }
        }
    }

    /// The fallback map's keys are the program's (or a journal's)
    /// addresses, so a crafted stream must not degrade it: 500 000
    /// addresses above 2^47 that agree in their low 20 bits stay linear.
    /// A hasher that sends them down one probe sequence takes minutes; the
    /// watchdog turns that into a failure instead of a hang.
    #[test]
    fn strided_high_addresses_do_not_flood_the_fallback_map() {
        const N: u64 = 500_000;
        let (done, finished) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let h: PagedHistory<u64> = PagedHistory::with_policy(ReaderPolicy::All);
            for j in 0..N {
                h.locked((1 << 50) + (j << 20), |e| e.begin_write_epoch(j));
            }
            done.send(h.lock_ops()).unwrap();
        });
        let lock_ops = finished
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("500 000 fallback-map inserts took over 30 s");
        worker.join().unwrap();
        assert_eq!(lock_ops, N);
    }
}
