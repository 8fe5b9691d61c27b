//! # sfrd-shadow — access-history shadow memory
//!
//! The second half of an on-the-fly race detector (§3.5, §4): for every
//! memory location, remember enough previous accessors that a later
//! conflicting access can be checked against them.
//!
//! The store is [`PagedHistory`] (module [`paged`]) — a two-level
//! direct-mapped page table: addresses resolve in O(1) through an
//! atomically-published page directory with **no hashing and no locks**
//! on the addressing path, and each location carries a packed atomic
//! word (writer epoch + reader-summary tag) giving redundant reads a
//! **zero-store fast path**. Only state-changing accesses take the
//! per-location seqlock-style write section. The store's contract is one
//! [`LocEntry`] per exact address.
//!
//! ## Writer epochs (the seqlock-style verdict cache)
//!
//! Every [`LocEntry`] carries a [`writer_seq`](LocEntry::writer_seq)
//! counter bumped whenever a new writer is installed
//! ([`LocEntry::begin_write_epoch`]). Like a seqlock's sequence word, it
//! lets a reader *validate* rather than *recompute*: a detector that has
//! already proven "this entry's writer serially precedes my strand" may
//! cache that verdict keyed by the epoch, and on a later access skip the
//! (expensive) reachability query whenever the epoch is unchanged —
//! sound because a strand's own positions only advance serially, so a
//! writer that preceded an earlier position precedes every later one.
//! The per-strand cache lives in `sfrd-runtime`'s `AccessBatch`; this
//! crate only maintains the epoch. The paged store additionally bakes
//! the epoch into each slot's packed word, which is what lets its read
//! fast path validate an entire snapshot with one atomic load.
//!
//! ## Reader policies
//!
//! Two reader-retention policies (selected per detector run):
//!
//! * [`ReaderPolicy::All`] — keep every reader since the last write (what
//!   F-Order needs, and what the paper's SF-Order implementation ships,
//!   §4 "Implementation Overview");
//! * [`ReaderPolicy::PerFutureLR`] — the §3.5 bound: per (location,
//!   future) only the *leftmost* and *rightmost* readers, ≤ 2k per
//!   location in total (Lemmas 3.10/3.11).
//!
//! The entry type is generic in the position type `P` (each reachability
//! engine has its own); order comparisons are injected as closures so this
//! crate stays engine-agnostic.
//!
//! ```
//! use sfrd_shadow::{PagedHistory, ReaderPolicy};
//!
//! // Positions are detector-specific; here, plain (eng, heb) pairs.
//! // No mutex is ever taken on the mapped addressing path, so lock_ops
//! // stays 0.
//! let h: PagedHistory<(u32, u32)> = PagedHistory::with_policy(ReaderPolicy::All);
//! h.locked(0x1000, |entry| {
//!     assert!(entry.writer.is_none());
//!     entry.readers.record(
//!         0,
//!         (1, 2),
//!         |a, b| a.0 < b.0,                    // English order
//!         |a, b| a.1 < b.1,                    // Hebrew order
//!         |a, b| a.0 < b.0 && a.1 < b.1,       // precedes
//!     );
//!     entry.begin_write_epoch((3, 3));
//!     assert!(entry.readers.is_empty());
//! });
//! assert_eq!(h.lock_ops(), 0);
//! ```

#![warn(missing_docs)]

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

pub mod paged;

pub use paged::{PageCursor, PagedHistory, MAPPED_BITS, PAGE_SHIFT, PAGE_SLOTS, SLOT_SHIFT};

/// Multiplicative address hasher (locally implemented; see DESIGN.md §7).
#[derive(Default)]
pub struct AddrHasher(u64);

impl Hasher for AddrHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(5) ^ b as u64).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
        }
    }
    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.0 = (self.0.rotate_left(5) ^ i).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

pub(crate) type AddrMap<V> = HashMap<u64, V, BuildHasherDefault<AddrHasher>>;

/// Which readers to retain per location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReaderPolicy {
    /// All readers since the last write.
    All,
    /// Leftmost + rightmost reader per future (the 2k bound of §3.5).
    PerFutureLR,
}

/// Retained readers of one location.
#[derive(Debug, Clone)]
pub enum Readers<P> {
    /// Every reader since the last write.
    All(Vec<P>),
    /// `(future, leftmost, rightmost)` triples.
    PerFuture(Vec<(u32, P, P)>),
}

impl<P: Copy> Readers<P> {
    pub(crate) fn new(policy: ReaderPolicy) -> Self {
        match policy {
            ReaderPolicy::All => Readers::All(Vec::new()),
            ReaderPolicy::PerFutureLR => Readers::PerFuture(Vec::new()),
        }
    }

    /// Iterate the retained readers (lr pairs may repeat a reader).
    pub fn for_each(&self, mut f: impl FnMut(P)) {
        match self {
            Readers::All(v) => v.iter().copied().for_each(&mut f),
            Readers::PerFuture(v) => {
                for &(_, l, r) in v {
                    f(l);
                    f(r);
                }
            }
        }
    }

    /// Number of retained reader slots.
    pub fn len(&self) -> usize {
        match self {
            Readers::All(v) => v.len(),
            Readers::PerFuture(v) => v.len() * 2,
        }
    }

    /// No readers retained?
    pub fn is_empty(&self) -> bool {
        match self {
            Readers::All(v) => v.is_empty(),
            Readers::PerFuture(v) => v.is_empty(),
        }
    }

    /// Record a reader. `future` is the reader's future id. For the
    /// per-future policy, the Mellor-Crummey update rule is applied to the
    /// (leftmost, rightmost) pair:
    ///
    /// * a slot whose stored reader *precedes* the new one advances to it
    ///   (a serial successor subsumes its ancestor for all later checks);
    /// * otherwise the readers are logically parallel (a new reader can
    ///   never precede a stored one — execution respects the dag), and the
    ///   slot takes whichever is further left (English order) / right
    ///   (Hebrew order).
    ///
    /// `eng_less`/`heb_less` compare order positions; `precedes` is the
    /// engine's reachability query restricted to same-future pairs.
    pub fn record(
        &mut self,
        future: u32,
        p: P,
        eng_less: impl Fn(&P, &P) -> bool,
        heb_less: impl Fn(&P, &P) -> bool,
        precedes: impl Fn(&P, &P) -> bool,
    ) {
        match self {
            Readers::All(v) => v.push(p),
            Readers::PerFuture(v) => {
                for entry in v.iter_mut() {
                    if entry.0 == future {
                        if precedes(&entry.1, &p) || eng_less(&p, &entry.1) {
                            entry.1 = p;
                        }
                        if precedes(&entry.2, &p) || heb_less(&p, &entry.2) {
                            entry.2 = p;
                        }
                        return;
                    }
                }
                v.push((future, p, p));
            }
        }
    }

    pub(crate) fn clear(&mut self) {
        match self {
            Readers::All(v) => v.clear(),
            Readers::PerFuture(v) => v.clear(),
        }
    }

    pub(crate) fn heap_bytes(&self) -> usize {
        match self {
            Readers::All(v) => v.capacity() * std::mem::size_of::<P>(),
            Readers::PerFuture(v) => v.capacity() * std::mem::size_of::<(u32, P, P)>(),
        }
    }
}

/// Shadow state of one memory location.
#[derive(Debug)]
pub struct LocEntry<P> {
    /// Last writer, if any.
    pub writer: Option<P>,
    /// Retained readers since the last write.
    pub readers: Readers<P>,
    /// Writer epoch: bumped every time a new writer is installed. The
    /// seqlock-style validation word for cached serial-writer verdicts
    /// (see module docs).
    pub writer_seq: u64,
}

impl<P: Copy> LocEntry<P> {
    /// An untouched location: no writer, no readers, epoch 0.
    pub fn new(policy: ReaderPolicy) -> Self {
        LocEntry {
            writer: None,
            readers: Readers::new(policy),
            writer_seq: 0,
        }
    }

    /// Install a new writer, advance the writer epoch, and drop the
    /// retained readers (sound: any race with a dropped reader is either
    /// already reported or subsumed by a race with this writer).
    pub fn begin_write_epoch(&mut self, w: P) {
        self.writer = Some(w);
        self.writer_seq += 1;
        self.readers.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Pos = (u32, u32); // (eng, heb) toy positions

    fn eng_less(a: &Pos, b: &Pos) -> bool {
        a.0 < b.0
    }
    fn heb_less(a: &Pos, b: &Pos) -> bool {
        a.1 < b.1
    }
    fn precedes(a: &Pos, b: &Pos) -> bool {
        a != b && a.0 < b.0 && a.1 < b.1
    }

    fn history(policy: ReaderPolicy) -> PagedHistory<Pos> {
        PagedHistory::with_policy(policy)
    }

    #[test]
    fn all_policy_keeps_every_reader() {
        let h = history(ReaderPolicy::All);
        for i in 0..5u32 {
            h.locked(0x100, |e| {
                e.readers
                    .record(0, (i, 10 - i), eng_less, heb_less, precedes)
            });
        }
        h.locked(0x100, |e| {
            assert_eq!(e.readers.len(), 5);
            let mut seen = vec![];
            e.readers.for_each(|p| seen.push(p));
            assert_eq!(seen.len(), 5);
        });
    }

    #[test]
    fn per_future_policy_keeps_extremes() {
        let h = history(ReaderPolicy::PerFutureLR);
        // Future 3: readers at (eng, heb) = (5,5), (2,8), (8,2).
        for (e, hb) in [(5, 5), (2, 8), (8, 2)] {
            h.locked(0x40, |ent| {
                ent.readers.record(3, (e, hb), eng_less, heb_less, precedes)
            });
        }
        // A second future contributes separately.
        h.locked(0x40, |ent| {
            ent.readers.record(7, (1, 1), eng_less, heb_less, precedes)
        });
        h.locked(0x40, |ent| {
            assert_eq!(ent.readers.len(), 4); // 2 futures × (l, r)
            let mut seen = vec![];
            ent.readers.for_each(|p| seen.push(p));
            assert!(seen.contains(&(2, 8)), "leftmost by eng");
            assert!(seen.contains(&(8, 2)), "rightmost by heb");
            assert!(seen.contains(&(1, 1)));
        });
    }

    #[test]
    fn write_epoch_clears_readers_and_advances_seq() {
        let h = history(ReaderPolicy::All);
        h.locked(0x8, |e| {
            assert_eq!(e.writer_seq, 0);
            e.readers.record(0, (1, 1), eng_less, heb_less, precedes);
            e.begin_write_epoch((2, 2));
            assert!(e.readers.is_empty());
            assert_eq!(e.writer, Some((2, 2)));
            assert_eq!(e.writer_seq, 1);
            e.begin_write_epoch((3, 3));
            assert_eq!(e.writer_seq, 2);
        });
    }

    #[test]
    fn distinct_addresses_distinct_entries() {
        let h = history(ReaderPolicy::All);
        for a in 0..1000u64 {
            h.locked(a * 8, |e| {
                e.readers
                    .record(0, (a as u32, a as u32), eng_less, heb_less, precedes)
            });
        }
        assert_eq!(h.locations(), 1000);
        assert_eq!(h.lock_ops(), 0, "mapped addressing path took a lock");
        assert!(h.page_allocs() >= 1);
        assert!(h.heap_bytes() > 0);
    }

    #[test]
    fn prefetch_slot_is_passive_and_counted() {
        let h = history(ReaderPolicy::All);
        // No page exists yet: the hint must not allocate one.
        assert!(!h.prefetch_slot(0x40));
        assert_eq!(h.page_allocs(), 0);
        // Out-of-range addresses are skipped entirely.
        assert!(!h.prefetch_slot(1u64 << 60));
        // After a real access publishes the page, the hint resolves.
        h.locked(0x40, |e| e.begin_write_epoch((1, 1)));
        assert!(h.prefetch_slot(0x40));
        assert!(h.prefetch_slot(0x48), "same page, different slot");
        assert_eq!(h.prefetches(), 0, "hints are tallied by the caller");
        h.note_prefetches(2);
        assert_eq!(h.prefetches(), 2);
    }

    #[test]
    fn sub_word_collisions_stay_exact() {
        // Two different addresses in one 8-byte slot span: the first claims
        // the slot, the second is diverted to the fallback map — entries
        // are never merged (one `LocEntry` per exact address).
        let h = history(ReaderPolicy::All);
        h.locked(0x40, |e| e.begin_write_epoch((1, 1)));
        h.locked(0x44, |e| e.begin_write_epoch((2, 2)));
        h.locked(0x40, |e| assert_eq!(e.writer, Some((1, 1))));
        h.locked(0x44, |e| assert_eq!(e.writer, Some((2, 2))));
        assert_eq!(h.locations(), 2);
        assert_eq!(h.lock_ops(), 2, "one fallback lock per 0x44 access");
    }

    #[test]
    fn out_of_range_addresses_use_fallback() {
        let h = history(ReaderPolicy::All);
        let high = 1u64 << 60;
        h.locked(high, |e| e.begin_write_epoch((1, 1)));
        h.locked(high, |e| assert_eq!(e.writer, Some((1, 1))));
        assert_eq!(h.lock_ops(), 2);
        assert_eq!(h.locations(), 1);
        let mut seen = vec![];
        h.for_each_entry(|addr, _| seen.push(addr));
        assert_eq!(seen, vec![high]);
    }

    #[test]
    fn fast_path_hits_on_redundant_reads() {
        let h = history(ReaderPolicy::PerFutureLR);
        let addr = 0x40u64;
        // First read must go through the write section (records the triple).
        let mut cur = h.cursor();
        assert!(!cur.fast_read(addr, 3, (5, 5), eng_less, heb_less, precedes, |_, _| true));
        cur.locked(addr, |e| {
            e.readers.record(3, (5, 5), eng_less, heb_less, precedes)
        });
        // Same (future, pos) again: provably a no-op — fast hit, no store.
        assert!(cur.fast_read(addr, 3, (5, 5), eng_less, heb_less, precedes, |_, _| true));
        // A position that moves leftmost must miss.
        assert!(!cur.fast_read(addr, 3, (2, 8), eng_less, heb_less, precedes, |_, _| true));
        // A serial successor (advance rule fires) must miss too.
        assert!(!cur.fast_read(addr, 3, (6, 6), eng_less, heb_less, precedes, |_, _| true));
        // Parallel position inside the LR envelope for the same future:
        // stays a no-op only if neither slot moves — (5,5) vs (5,5) is the
        // stored pair, and (4,6)... eng_less((4,6),(5,5)) → leftmost moves.
        assert!(!cur.fast_read(addr, 3, (4, 6), eng_less, heb_less, precedes, |_, _| true));
        // An unknown future must miss (its triple is absent).
        assert!(!cur.fast_read(addr, 9, (5, 5), eng_less, heb_less, precedes, |_, _| true));
        // A writer veto routes to the slow path.
        assert!(!cur.fast_read(addr, 3, (5, 5), eng_less, heb_less, precedes, |_, _| false));
        assert_eq!(h.fast_hits(), 1);
    }

    #[test]
    fn fast_path_disabled_for_keep_all_policy() {
        let h = history(ReaderPolicy::All);
        let mut cur = h.cursor();
        cur.locked(0x40, |e| {
            e.readers.record(0, (1, 1), eng_less, heb_less, precedes)
        });
        // Keep-all must always record, so the fast path never hits.
        assert!(!cur.fast_read(0x40, 0, (1, 1), eng_less, heb_less, precedes, |_, _| true));
        assert_eq!(h.fast_hits(), 0);
    }

    #[test]
    fn mirror_spills_past_two_futures() {
        let h = history(ReaderPolicy::PerFutureLR);
        let mut cur = h.cursor();
        for fut in 0..3u32 {
            cur.locked(0x80, |e| {
                e.readers
                    .record(fut, (fut, fut), eng_less, heb_less, precedes)
            });
        }
        // Three futures exceed the inline mirror — fast path must bail even
        // for a redundant read, and the locked path still has all triples.
        assert!(!cur.fast_read(0x80, 0, (0, 0), eng_less, heb_less, precedes, |_, _| true));
        cur.locked(0x80, |e| assert_eq!(e.readers.len(), 6));
    }

    #[test]
    fn write_epoch_invalidates_fast_path_epoch() {
        let h = history(ReaderPolicy::PerFutureLR);
        let mut cur = h.cursor();
        cur.locked(0x40, |e| {
            e.readers.record(1, (3, 3), eng_less, heb_less, precedes)
        });
        assert!(
            cur.fast_read(0x40, 1, (3, 3), eng_less, heb_less, precedes, |w, seq| {
                assert_eq!(w, None);
                assert_eq!(seq, 0);
                true
            })
        );
        cur.locked(0x40, |e| e.begin_write_epoch((4, 4)));
        // Readers were cleared by the write epoch: the triple is gone, so
        // the fast path misses (the read must re-record under the lock).
        assert!(!cur.fast_read(0x40, 1, (3, 3), eng_less, heb_less, precedes, |_, _| true));
    }

    #[test]
    fn concurrent_access_is_safe() {
        use std::sync::Arc;
        let h = Arc::new(history(ReaderPolicy::All));
        let mut threads = vec![];
        for t in 0..4u32 {
            let h = Arc::clone(&h);
            threads.push(std::thread::spawn(move || {
                for i in 0..10_000u64 {
                    h.locked((i % 64) * 16, |e| {
                        e.readers.record(t, (t, t), eng_less, heb_less, precedes)
                    });
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.lock_ops(), 0);
        h.locked(0, |e| assert!(e.readers.len() >= 4 * 10_000 / 64));
    }

    #[test]
    fn heap_bytes_covers_table_capacity() {
        // Bytes must be capacity-based, so a store holding N entries
        // charges at least N * entry-size even before any reader payload.
        let h = history(ReaderPolicy::All);
        for a in 0..100u64 {
            h.locked(a * 16, |e| e.begin_write_epoch((1, 1)));
        }
        let floor = 100 * std::mem::size_of::<(u64, LocEntry<Pos>)>();
        assert!(h.heap_bytes() >= floor, "{} < {floor}", h.heap_bytes());
    }
}
