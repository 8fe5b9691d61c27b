//! # sfrd-shadow — access-history shadow memory
//!
//! The second half of an on-the-fly race detector (§3.5, §4): for every
//! memory location, remember enough previous accessors that a later
//! conflicting access can be checked against them.
//!
//! The store is [`PagedHistory`] (module [`paged`]) — a three-level
//! direct-mapped page table of 16 KiB nodes: addresses resolve in O(1)
//! through an atomically-published page directory with **no hashing and no
//! locks** on the addressing path, and each location's slot is four atomic
//! words — the packed word (section tag, the claiming address's low bits,
//! busy bit) and three holding the [`LocEntry`]'s fields — 32 bytes, two
//! slots per cache line, with the first and the most recent reader inline
//! and a spill, named by a 4-byte index, only past that. A
//! *same-epoch* access — a read by the location's last recorded reader or
//! by its writer, a write by its writer with no reader retained — is
//! answered from a packed-word-validated snapshot of those inline fields
//! with **zero stores**; only state-changing accesses take the per-location
//! seqlock-style write section. The store's contract is one [`LocEntry`]
//! per exact address.
//!
//! ## The section tag
//!
//! A location's state is its last writer and its retained readers, as in
//! the paper (§3.5, §4); a write epoch is nothing more than the time
//! between two writers ([`LocEntry::begin_write_epoch`]). The paged store
//! adds one counter per slot, the *section tag* in the slot's packed word:
//! every write section that releases the slot adds one to it, whatever the
//! section changed. It is the slot seqlock's sequence, so a reader that
//! loaded the entry's data words *validates* them with one atomic
//! re-load instead of taking the section. At 59 bits it cannot wrap
//! within any window a reader holds open.
//!
//! ## Reader policies
//!
//! Two reader-retention policies (selected per detector run):
//!
//! * [`ReaderPolicy::All`] — keep every reader since the last write (what
//!   F-Order needs, and what the paper's SF-Order implementation ships,
//!   §4 "Implementation Overview"), except that a reader equal to the
//!   most recently recorded one is not recorded again;
//! * [`ReaderPolicy::PerFutureLR`] — the §3.5 bound: per (location,
//!   future) only the *leftmost* and *rightmost* readers, ≤ 2k per
//!   location in total (Lemmas 3.10/3.11).
//!
//! Under either policy a read at the current writer's own position is not
//! retained ([`LocEntry::retain_reader`]): the writer, at the same
//! position, stands for it in every later check.
//!
//! The entry type is generic in the position type `P`, any [`Position`]:
//! a value that enters and leaves a slot as one nonzero 32-bit word — the
//! detectors store `sfrd_reach::Pos`, one interned word per strand
//! position; order comparisons are injected as closures so this crate
//! stays engine-agnostic.
//!
//! ```
//! use sfrd_shadow::{PagedHistory, ReaderPolicy};
//!
//! // Positions are detector-specific; here, plain integers ordered as
//! // numbers. No mutex is ever taken on the mapped addressing path, so
//! // lock_ops stays 0.
//! let h: PagedHistory<u32> = PagedHistory::with_policy(ReaderPolicy::All);
//! h.locked(0x1000, |entry| {
//!     assert!(entry.writer.is_none());
//!     entry.readers.record(
//!         0,
//!         2,
//!         |a, b| a < b, // English order
//!         |a, b| a < b, // Hebrew order
//!         |a, b| a < b, // precedes
//!     );
//!     entry.begin_write_epoch(3);
//!     assert!(entry.readers.is_empty());
//! });
//! assert_eq!(h.lock_ops(), 0);
//! ```

#![warn(missing_docs)]

use std::cell::UnsafeCell;

use sfrd_om::AppendArena;
use sfrd_runtime::sync::{AtomicUsize, Ordering};

pub mod paged;

pub use paged::{PageCursor, PagedHistory, MAPPED_BITS, PAGE_SHIFT, PAGE_SLOTS, SLOT_SHIFT};

/// Which readers to retain per location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReaderPolicy {
    /// All readers since the last write (a reader equal to the most
    /// recently recorded one is not recorded twice).
    All,
    /// Leftmost + rightmost reader per future (the 2k bound of §3.5).
    PerFutureLR,
}

/// A position the access history can store: a value that enters and
/// leaves a slot as one nonzero 32-bit word, 0 being `None`. Every `Copy`
/// type with the two std conversions is one — `u64` from std,
/// `sfrd_reach::Pos` through its own impls.
pub trait Position: Copy + Send + TryInto<u32> + TryFrom<u32> {}

impl<P: Copy + Send + TryInto<u32> + TryFrom<u32>> Position for P {}

/// `p`'s word. A position that does not fit in a nonzero word panics; it
/// is never truncated.
#[inline]
pub(crate) fn word<P: Position>(p: P) -> u32 {
    (p.try_into().ok().filter(|&w| w != 0))
        .expect("a shadow position must fit in a nonzero 32-bit word")
}

/// The position a word holds; `None` for 0.
#[inline]
pub(crate) fn position<P: Position>(w: u32) -> Option<P> {
    (w != 0).then(|| P::try_from(w).unwrap_or_else(|_| panic!("word {w} holds no position")))
}

/// Low bit of [`Head::meta`]: set under [`ReaderPolicy::PerFutureLR`].
const LR_BIT: u32 = 1;
/// Inline index of the most recent reader (`All`) / rightmost
/// (`PerFutureLR`). It shares a slot word with `meta`, so read-same-epoch
/// loads one data word.
pub(crate) const LAST: usize = 0;
/// Inline index of the first reader (`All`) / leftmost (`PerFutureLR`).
pub(crate) const FIRST: usize = 1;

/// The inline part of [`Readers`], as position words: everything the
/// paged store's lock-free snapshot interprets, and the same for every
/// position type.
///
/// * `All`: `count` readers in record order; `inline[LAST]` is the most
///   recent one, `inline[FIRST]` the first once `count >= 2`, and the
///   `count - 2` in between live in the heap spill.
/// * `PerFutureLR`: `count` `(future, leftmost, rightmost)` triples; the
///   first future's is `(fut, inline[FIRST], inline[LAST])`, later
///   futures' live in the spill.
#[derive(Clone, Copy)]
pub(crate) struct Head {
    /// `count << 1 | LR_BIT`.
    meta: u32,
    /// Future of the inline triple (`PerFutureLR` only).
    fut: u32,
    inline: [u32; 2],
}

impl Head {
    pub(crate) fn new(policy: ReaderPolicy) -> Self {
        Head {
            meta: u32::from(policy == ReaderPolicy::PerFutureLR) * LR_BIT,
            fut: 0,
            inline: [0; 2],
        }
    }

    #[inline]
    fn is_lr(&self) -> bool {
        self.meta & LR_BIT != 0
    }

    /// Readers (`All`) or triples (`PerFutureLR`) retained.
    #[inline]
    pub(crate) fn count(&self) -> usize {
        (self.meta >> 1) as usize
    }

    fn set_count(&mut self, n: usize) {
        assert!(n <= (u32::MAX >> 1) as usize, "reader count fits 31 bits");
        self.meta = (n as u32) << 1 | (self.meta & LR_BIT);
    }

    /// The inline position `i`; callers index only slots their `count`
    /// says were written.
    #[inline]
    fn get<P: Position>(&self, i: usize) -> P {
        position(self.inline[i]).expect("a counted reader is stored")
    }

    /// The most recently recorded reader under [`ReaderPolicy::All`];
    /// `None` when empty or under `PerFutureLR`.
    #[inline]
    pub(crate) fn last<P: Position>(&self) -> Option<P> {
        (!self.is_lr() && self.count() > 0).then(|| self.get(LAST))
    }

    /// `future`'s `(leftmost, rightmost)` pair if it is the inline
    /// triple; `None` when it is absent *or* spilled (the caller cannot
    /// tell which without the write section).
    #[inline]
    pub(crate) fn inline_lr<P: Position>(&self, future: u32) -> Option<(P, P)> {
        (self.is_lr() && self.count() > 0 && self.fut == future)
            .then(|| (self.get(FIRST), self.get(LAST)))
    }
}

/// Readers past the inline capacity of a [`Head`].
#[derive(Default)]
pub(crate) enum Spill<P> {
    /// Nothing spilled yet.
    #[default]
    None,
    All(Vec<P>),
    PerFuture(Vec<(u32, P, P)>),
}

/// A paged slot's spill, held by its history so that the slot names it
/// with a 4-byte index.
pub(crate) struct SpillCell<P>(UnsafeCell<Spill<P>>);

// SAFETY: a cell is only touched through its slot's `SpillRef::Indexed`,
// which exists only inside that slot's write section (exclusive by CAS).
unsafe impl<P: Send> Sync for SpillCell<P> {}
// SAFETY: as above.
unsafe impl<P: Send> Send for SpillCell<P> {}

/// A history's spill cells, by the index a slot stores (index + 1; 0 is
/// none).
pub(crate) type SpillArena<P> = AppendArena<SpillCell<P>>;

/// Where one location's spill lives.
pub(crate) enum SpillRef<'a, P> {
    /// In a [`LocState`] (the fallback map, reference models).
    Owned(&'a mut Spill<P>),
    /// Behind a paged slot's index into its history's arena; followed
    /// only when the readers need the spill.
    Indexed {
        index: &'a mut u32,
        arena: &'a SpillArena<P>,
    },
}

impl<P> SpillRef<'_, P> {
    fn get(&self) -> Option<&Spill<P>> {
        match self {
            SpillRef::Owned(s) => Some(s),
            SpillRef::Indexed { index, arena } => index.checked_sub(1).map(|i| {
                // SAFETY: the view exists only inside the slot's write
                // section, so the slot's cell is this view's alone.
                unsafe { &*arena.get(i as usize).0.get() }
            }),
        }
    }

    /// The spill, with a cell taken for a slot that has none yet.
    fn get_mut(&mut self) -> &mut Spill<P> {
        match self {
            SpillRef::Owned(s) => s,
            SpillRef::Indexed { index, arena } => {
                if **index == 0 {
                    let i = arena.push(SpillCell(UnsafeCell::new(Spill::None)));
                    **index = u32::try_from(i + 1).expect("spill index fits 32 bits");
                }
                // SAFETY: as in `get`.
                unsafe { &mut *arena.get(**index as usize - 1).0.get() }
            }
        }
    }
}

/// Retained readers of one location: two positions inline, a spill only
/// past that (see [`ReaderPolicy`] for what is retained). A view into the
/// location's state, borrowed for one write section.
pub struct Readers<'a, P> {
    pub(crate) head: &'a mut Head,
    pub(crate) spill: SpillRef<'a, P>,
    /// The history's spill-capacity count, charged whenever a push grows
    /// the spill (`None` for a [`LocState`] outside any history).
    pub(crate) bytes: Option<&'a AtomicUsize>,
}

/// Push `x` onto a spill, charging any capacity it grows by to `bytes`.
fn push_counted<T>(spill: &mut Vec<T>, x: T, bytes: Option<&AtomicUsize>) {
    let cap = spill.capacity();
    spill.push(x);
    if let Some(bytes) = bytes.filter(|_| spill.capacity() != cap) {
        bytes.fetch_add(
            (spill.capacity() - cap) * std::mem::size_of::<T>(),
            Ordering::Relaxed,
        );
    }
}

/// The Mellor-Crummey update of one `(leftmost, rightmost)` pair.
fn lr_update<P: Copy>(
    l: &mut P,
    r: &mut P,
    p: P,
    eng_less: impl Fn(&P, &P) -> bool,
    heb_less: impl Fn(&P, &P) -> bool,
    precedes: impl Fn(&P, &P) -> bool,
) {
    if precedes(l, &p) || eng_less(&p, l) {
        *l = p;
    }
    if precedes(r, &p) || heb_less(&p, r) {
        *r = p;
    }
}

impl<P: Position> Readers<'_, P> {
    /// Readers (`All`) or triples (`PerFutureLR`) held in the spill: all
    /// but the inline two, or all but the inline triple. The spill is
    /// only looked at when this is non-zero.
    fn spilled(&self) -> usize {
        let inline = if self.head.is_lr() { 1 } else { 2 };
        self.head.count().saturating_sub(inline)
    }

    fn spilled_all(&self) -> &[P] {
        match self.spill.get() {
            Some(Spill::All(v)) => v,
            _ => &[],
        }
    }

    fn spilled_lr(&self) -> &[(u32, P, P)] {
        match self.spill.get() {
            Some(Spill::PerFuture(v)) => v,
            _ => &[],
        }
    }

    /// The `All` spill, started on first use.
    fn spill_all(&mut self) -> &mut Vec<P> {
        let spill = self.spill.get_mut();
        if let Spill::None = spill {
            *spill = Spill::All(Vec::new());
        }
        match spill {
            Spill::All(v) => v,
            _ => unreachable!("policy is fixed at construction"),
        }
    }

    /// The `PerFutureLR` spill, started on first use.
    fn spill_lr(&mut self) -> &mut Vec<(u32, P, P)> {
        let spill = self.spill.get_mut();
        if let Spill::None = spill {
            *spill = Spill::PerFuture(Vec::new());
        }
        match spill {
            Spill::PerFuture(v) => v,
            _ => unreachable!("policy is fixed at construction"),
        }
    }

    /// Iterate the retained readers in record order (lr pairs may repeat
    /// a reader).
    pub fn for_each(&self, mut f: impl FnMut(P)) {
        let n = self.head.count();
        if n == 0 {
            return;
        }
        let spilled = self.spilled() > 0;
        if self.head.is_lr() {
            f(self.head.get(FIRST));
            f(self.head.get(LAST));
            if spilled {
                for &(_, l, r) in self.spilled_lr() {
                    f(l);
                    f(r);
                }
            }
        } else {
            if n >= 2 {
                f(self.head.get(FIRST));
                if spilled {
                    self.spilled_all().iter().copied().for_each(&mut f);
                }
            }
            f(self.head.get(LAST));
        }
    }

    /// Number of retained reader slots.
    pub fn len(&self) -> usize {
        self.head.count() << usize::from(self.head.is_lr())
    }

    /// No readers retained?
    pub fn is_empty(&self) -> bool {
        self.head.count() == 0
    }

    /// Record a reader. `future` is the reader's future id.
    ///
    /// Under [`ReaderPolicy::All`] a reader equal to the most recently
    /// recorded one is dropped: it was checked against the same writer
    /// (a write would have cleared the list) and a later writer's sweep
    /// already sees it, so a strand re-reading a location retains one
    /// position however often it repeats.
    ///
    /// For the per-future policy, the Mellor-Crummey update rule is
    /// applied to the (leftmost, rightmost) pair:
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
    ) where
        P: PartialEq,
    {
        let n = self.head.count();
        if !self.head.is_lr() {
            if n > 0 {
                let last = self.head.get(LAST);
                if last == p {
                    return;
                }
                if n == 1 {
                    self.head.inline[FIRST] = self.head.inline[LAST];
                } else {
                    let bytes = self.bytes;
                    push_counted(self.spill_all(), last, bytes);
                }
            }
            self.head.inline[LAST] = word(p);
            self.head.set_count(n + 1);
            return;
        }
        if n == 0 {
            self.head.fut = future;
            self.head.inline = [word(p); 2];
            self.head.set_count(1);
            return;
        }
        if self.head.fut == future {
            let (mut l, mut r) = (self.head.get(FIRST), self.head.get(LAST));
            lr_update(&mut l, &mut r, p, eng_less, heb_less, precedes);
            self.head.inline[FIRST] = word(l);
            self.head.inline[LAST] = word(r);
            return;
        }
        let bytes = self.bytes;
        let spilled = self.spill_lr();
        match spilled.iter_mut().find(|t| t.0 == future) {
            Some((_, l, r)) => lr_update(l, r, p, eng_less, heb_less, precedes),
            None => {
                push_counted(spilled, (future, p, p), bytes);
                self.head.set_count(n + 1);
            }
        }
    }

    /// Drop every reader; a spill keeps its allocation for the next epoch.
    fn clear(&mut self) {
        if self.spilled() > 0 {
            match self.spill.get_mut() {
                Spill::All(v) => v.clear(),
                Spill::PerFuture(v) => v.clear(),
                Spill::None => {}
            }
        }
        self.head.set_count(0);
    }

    /// The spill's capacity in bytes: what [`push_counted`] has charged
    /// for this location.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        match self.spill.get() {
            None | Some(Spill::None) => 0,
            Some(Spill::All(v)) => v.capacity() * std::mem::size_of::<P>(),
            Some(Spill::PerFuture(v)) => v.capacity() * std::mem::size_of::<(u32, P, P)>(),
        }
    }
}

impl<P: Position + std::fmt::Debug> std::fmt::Debug for Readers<'_, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut list = f.debug_list();
        self.for_each(|p| {
            list.entry(&p);
        });
        list.finish()
    }
}

/// Shadow state of one memory location, as a write section sees it: a
/// view of the location's fields, borrowed for the section. In the paged
/// store the view points into the slot itself, and in the fallback map
/// into a [`LocState`].
pub struct LocEntry<'a, P> {
    /// Retained readers since the last write.
    pub readers: Readers<'a, P>,
    /// Last writer, if any.
    pub writer: &'a mut Option<P>,
}

impl<P: Position + std::fmt::Debug> std::fmt::Debug for LocEntry<'_, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocEntry")
            .field("writer", &self.writer)
            .field("readers", &self.readers)
            .finish()
    }
}

impl<P: Position> LocEntry<'_, P> {
    /// Install a new writer and drop the retained readers (sound: any race
    /// with a dropped reader is either already reported or subsumed by a
    /// race with this writer).
    pub fn begin_write_epoch(&mut self, w: P) {
        *self.writer = Some(w);
        self.readers.clear();
    }

    /// The read half's state change: retain a reader at `p` by the
    /// policy's rule ([`Readers::record`], whose arguments these are) —
    /// unless `p` is the writer's own position. **A read at the current
    /// writer's position is not retained**: a later writer that would
    /// race with it races with the stored writer, the same position,
    /// which its check asks about first. This is the one place that rule
    /// lives; the detectors' read check and every reference model go
    /// through it, and [`PageCursor::fast_read`] is its zero-store mirror.
    pub fn retain_reader(
        &mut self,
        future: u32,
        p: P,
        eng_less: impl Fn(&P, &P) -> bool,
        heb_less: impl Fn(&P, &P) -> bool,
        precedes: impl Fn(&P, &P) -> bool,
    ) where
        P: PartialEq,
    {
        if *self.writer != Some(p) {
            self.readers.record(future, p, eng_less, heb_less, precedes);
        }
    }
}

/// One location's shadow state held by value: what the paged store's
/// fallback map keeps per address, and what reference models keep. Its
/// [`entry`](Self::entry) is the same view a paged slot's section gets.
pub struct LocState<P> {
    head: Head,
    spill: Spill<P>,
    writer: Option<P>,
}

impl<P: Position> LocState<P> {
    /// An untouched location: no writer, no readers.
    pub fn new(policy: ReaderPolicy) -> Self {
        LocState {
            head: Head::new(policy),
            spill: Spill::None,
            writer: None,
        }
    }

    /// The location's entry, for one check.
    pub fn entry(&mut self) -> LocEntry<'_, P> {
        self.entry_with(None)
    }

    /// The entry, charging spill growth to `bytes` (a history's count).
    pub(crate) fn entry_with<'a>(&'a mut self, bytes: Option<&'a AtomicUsize>) -> LocEntry<'a, P> {
        LocEntry {
            readers: Readers {
                head: &mut self.head,
                spill: SpillRef::Owned(&mut self.spill),
                bytes,
            },
            writer: &mut self.writer,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy `(eng, heb)` position in one word: `eng << 16 | heb`, plus
    /// one so that `(0, 0)` is a position too.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    pub(crate) struct Pos(pub(crate) u16, pub(crate) u16);

    impl TryFrom<Pos> for u32 {
        type Error = ();
        fn try_from(p: Pos) -> Result<u32, ()> {
            (u32::from(p.0) << 16 | u32::from(p.1))
                .checked_add(1)
                .ok_or(())
        }
    }

    impl TryFrom<u32> for Pos {
        type Error = ();
        fn try_from(w: u32) -> Result<Pos, ()> {
            let v = w.checked_sub(1).ok_or(())?;
            Ok(Pos((v >> 16) as u16, v as u16))
        }
    }

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
        for i in 0..5u16 {
            h.locked(0x100, |e| {
                e.readers
                    .record(0, Pos(i, 10 - i), eng_less, heb_less, precedes)
            });
        }
        h.locked(0x100, |e| {
            assert_eq!(e.readers.len(), 5);
            let mut seen = vec![];
            e.readers.for_each(|p| seen.push(p));
            assert_eq!(
                seen,
                (0..5).map(|i| Pos(i, 10 - i)).collect::<Vec<_>>(),
                "record order: first inline, middle spilled, last inline"
            );
            assert_eq!(e.readers.head.last(), Some(Pos(4, 6)));
        });
    }

    #[test]
    fn all_policy_drops_a_repeat_of_the_last_reader() {
        let h = history(ReaderPolicy::All);
        let rec = |p: Pos| {
            h.locked(0x100, |e| {
                e.readers.record(0, p, eng_less, heb_less, precedes)
            })
        };
        for _ in 0..3 {
            rec(Pos(1, 1));
        }
        h.locked(0x100, |e| assert_eq!(e.readers.len(), 1));
        // Only the *last* entry is compared: an interleaved reader defeats
        // the dedup and both stay, in order.
        rec(Pos(2, 2));
        rec(Pos(1, 1));
        rec(Pos(1, 1));
        h.locked(0x100, |e| {
            let mut seen = vec![];
            e.readers.for_each(|p| seen.push(p));
            assert_eq!(seen, vec![Pos(1, 1), Pos(2, 2), Pos(1, 1)]);
        });
        // A write clears them; the allocation-free inline pair is reused.
        h.locked(0x100, |e| {
            e.begin_write_epoch(Pos(3, 3));
            assert!(e.readers.is_empty() && e.readers.head.last::<Pos>().is_none());
        });
        rec(Pos(1, 1));
        h.locked(0x100, |e| assert_eq!(e.readers.len(), 1));
    }

    #[test]
    fn per_future_policy_keeps_extremes() {
        let h = history(ReaderPolicy::PerFutureLR);
        // Future 3: readers at (eng, heb) = (5,5), (2,8), (8,2).
        for (e, hb) in [(5, 5), (2, 8), (8, 2)] {
            h.locked(0x40, |ent| {
                ent.readers
                    .record(3, Pos(e, hb), eng_less, heb_less, precedes)
            });
        }
        // A second future contributes separately.
        h.locked(0x40, |ent| {
            ent.readers
                .record(7, Pos(1, 1), eng_less, heb_less, precedes)
        });
        h.locked(0x40, |ent| {
            assert_eq!(ent.readers.len(), 4); // 2 futures × (l, r)
            let mut seen = vec![];
            ent.readers.for_each(|p| seen.push(p));
            assert!(seen.contains(&Pos(2, 8)), "leftmost by eng");
            assert!(seen.contains(&Pos(8, 2)), "rightmost by heb");
            assert!(seen.contains(&Pos(1, 1)));
        });
    }

    /// A write epoch installs the writer and clears the readers, and the
    /// section that opens it advances the slot's sequence, its tag.
    #[test]
    fn write_epoch_clears_readers_and_advances_seq() {
        let h = history(ReaderPolicy::All);
        h.locked(0x8, |e| {
            assert!(e.writer.is_none());
            e.readers.record(0, Pos(1, 1), eng_less, heb_less, precedes);
            e.begin_write_epoch(Pos(2, 2));
            assert!(e.readers.is_empty());
            assert_eq!(*e.writer, Some(Pos(2, 2)));
        });
        let before = h.packed_words()[1];
        h.locked(0x8, |e| e.begin_write_epoch(Pos(3, 3)));
        assert_ne!(h.packed_words()[1], before);
        h.locked(0x8, |e| assert_eq!(*e.writer, Some(Pos(3, 3))));
    }

    #[test]
    fn distinct_addresses_distinct_entries() {
        let h = history(ReaderPolicy::All);
        for a in 0..1000u64 {
            h.locked(a * 8, |e| {
                e.readers
                    .record(0, Pos(a as u16, a as u16), eng_less, heb_less, precedes)
            });
        }
        assert_eq!(h.locations(), 1000);
        assert_eq!(h.lock_ops(), 0, "mapped addressing path took a lock");
        assert!(h.page_allocs() >= 1);
        assert!(h.heap_bytes() > 0);
    }

    #[test]
    fn sub_word_collisions_stay_exact() {
        // Two different addresses in one 8-byte slot span: the first claims
        // the slot, the second is diverted to the fallback map — entries
        // are never merged (one `LocEntry` per exact address).
        let h = history(ReaderPolicy::All);
        h.locked(0x40, |e| e.begin_write_epoch(Pos(1, 1)));
        h.locked(0x44, |e| e.begin_write_epoch(Pos(2, 2)));
        h.locked(0x40, |e| assert_eq!(*e.writer, Some(Pos(1, 1))));
        h.locked(0x44, |e| assert_eq!(*e.writer, Some(Pos(2, 2))));
        assert_eq!(h.locations(), 2);
        assert_eq!(h.lock_ops(), 2, "one fallback lock per 0x44 access");
        // The lock-free side tells them apart by the claim in the packed
        // word: 0x44 never answers from 0x40's slot.
        let mut cur = h.cursor();
        assert_eq!(cur.snapshot(0x40).and_then(|s| s.writer()), Some(Pos(1, 1)));
        assert!(cur.snapshot(0x44).is_none());
        assert!(cur.fast_write(0x40, Pos(1, 1)));
        assert!(!cur.fast_write(0x44, Pos(1, 1)));
        assert!(!cur.fast_read(0x44, 0, Pos(1, 1), eng_less, heb_less, precedes, |_| true));
        drop(cur);
        let mut seen = vec![];
        h.for_each_entry(|addr, e| seen.push((addr, *e.writer)));
        seen.sort_unstable();
        assert_eq!(seen, [(0x40, Some(Pos(1, 1))), (0x44, Some(Pos(2, 2)))]);
        assert_eq!(h.lock_ops(), 2, "snapshots and sweeps count no access lock");
    }

    /// A sweep names every location by its exact address, rebuilt from the
    /// slot's place in the directory and the claim's low bits: addresses
    /// on two pages of one leaf node, on two leaves of one mid node, under
    /// three mid nodes, the last mapped word and the first unmapped one
    /// (the fallback map's).
    #[test]
    fn the_sweep_names_each_exact_address() {
        assert_eq!(MAPPED_BITS, 47);
        let h = history(ReaderPolicy::All);
        let mut addrs = vec![
            0x3,
            0x40,
            (1 << 14) + 8,
            (1 << 25) + 16,
            (1 << 36) + 24,
            0x7ffe_dead_bee8 + 5,
            (1 << MAPPED_BITS) - 8,
            1 << MAPPED_BITS,
        ];
        for &a in &addrs {
            h.locked(a, |e| e.begin_write_epoch(Pos(1, 1)));
        }
        let mut seen = vec![];
        h.for_each_entry(|addr, _| seen.push(addr));
        seen.sort_unstable();
        addrs.sort_unstable();
        assert_eq!(seen, addrs);
        // Mid nodes under root entries 0, 1 and 0x7ff; leaves: two under
        // the first, one under the second, two under the last.
        assert_eq!(h.node_allocs(), 3 + 5);
        assert_eq!(h.page_allocs(), 6);
        assert_eq!(h.lock_ops(), 1, "only the first unmapped word locks");
    }

    #[test]
    fn out_of_range_addresses_use_fallback() {
        let h = history(ReaderPolicy::All);
        let high = 1u64 << 60;
        h.locked(high, |e| e.begin_write_epoch(Pos(1, 1)));
        h.locked(high, |e| assert_eq!(*e.writer, Some(Pos(1, 1))));
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
        assert!(!cur.fast_read(addr, 3, Pos(5, 5), eng_less, heb_less, precedes, |_| true));
        cur.locked(addr, |e| {
            e.readers.record(3, Pos(5, 5), eng_less, heb_less, precedes)
        });
        // Same (future, pos) again: provably a no-op — fast hit, no store.
        assert!(cur.fast_read(addr, 3, Pos(5, 5), eng_less, heb_less, precedes, |_| true));
        // A position that moves leftmost must miss.
        assert!(!cur.fast_read(addr, 3, Pos(2, 8), eng_less, heb_less, precedes, |_| true));
        // A serial successor (advance rule fires) must miss too.
        assert!(!cur.fast_read(addr, 3, Pos(6, 6), eng_less, heb_less, precedes, |_| true));
        // Parallel position inside the LR envelope for the same future:
        // stays a no-op only if neither slot moves — (5,5) vs (5,5) is the
        // stored pair, and (4,6)... eng_less((4,6),(5,5)) → leftmost moves.
        assert!(!cur.fast_read(addr, 3, Pos(4, 6), eng_less, heb_less, precedes, |_| true));
        // An unknown future must miss (its triple is absent).
        assert!(!cur.fast_read(addr, 9, Pos(5, 5), eng_less, heb_less, precedes, |_| true));
        // A writer veto routes to the slow path.
        assert!(!cur.fast_read(addr, 3, Pos(5, 5), eng_less, heb_less, precedes, |_| false));
        drop(cur);
        assert_eq!(h.fast_hits(), 1);
    }

    /// Read-same-epoch under the default policy: the comparators and the
    /// writer check are never consulted — one compare on the snapshot.
    #[test]
    fn same_epoch_read_hits_under_all() {
        let h = history(ReaderPolicy::All);
        let mut cur = h.cursor();
        let never = |_: &Pos, _: &Pos| -> bool { panic!("comparator consulted under All") };
        let no_writer_check = |_: Option<Pos>| -> bool { panic!("writer re-checked") };
        let fast = |cur: &mut PageCursor<'_, Pos>, fut, p| {
            cur.fast_read(0x40, fut, p, never, never, never, no_writer_check)
        };
        // Nothing there yet: the page does not even exist.
        assert!(!fast(&mut cur, 0, Pos(1, 1)));
        assert_eq!(h.page_allocs(), 0, "a snapshot must not allocate");
        cur.locked(0x40, |e| {
            e.begin_write_epoch(Pos(0, 0));
            e.readers.record(0, Pos(1, 1), eng_less, heb_less, precedes)
        });
        // The last recorded reader re-reads: a no-op, whatever its future.
        assert!(fast(&mut cur, 0, Pos(1, 1)));
        assert!(fast(&mut cur, 7, Pos(1, 1)));
        // Any other position must record.
        assert!(!fast(&mut cur, 0, Pos(2, 2)));
        // An interleaved reader becomes the last one and defeats (1, 1).
        cur.locked(0x40, |e| {
            e.readers.record(1, Pos(2, 2), eng_less, heb_less, precedes)
        });
        assert!(!fast(&mut cur, 0, Pos(1, 1)));
        assert!(fast(&mut cur, 1, Pos(2, 2)));
        // A write clears the readers: the next read must re-check.
        cur.locked(0x40, |e| e.begin_write_epoch(Pos(3, 3)));
        assert!(!fast(&mut cur, 1, Pos(2, 2)));
        // The same address's sub-word neighbour lives in the fallback map
        // and never hits on the owner's snapshot.
        cur.locked(0x44, |e| {
            e.readers.record(0, Pos(3, 3), eng_less, heb_less, precedes)
        });
        assert!(!cur.fast_read(0x44, 0, Pos(3, 3), never, never, never, no_writer_check));
        drop(cur);
        assert_eq!(h.fast_hits(), 3, "hits fold in when the cursor drops");
    }

    /// A write-same-epoch hit stores nothing: every packed word reads as
    /// it did before it.
    #[test]
    fn same_epoch_write_hits_and_leaves_the_epoch() {
        for policy in [ReaderPolicy::All, ReaderPolicy::PerFutureLR] {
            let h = history(policy);
            let mut cur = h.cursor();
            assert!(!cur.fast_write(0x40, Pos(1, 1)), "untouched location");
            cur.locked(0x40, |e| e.begin_write_epoch(Pos(1, 1)));
            let before = h.packed_words();
            assert!(cur.fast_write(0x40, Pos(1, 1)));
            assert!(!cur.fast_write(0x40, Pos(2, 2)), "another writer");
            assert_eq!(h.packed_words(), before, "a hit stored");
            let snap = cur.snapshot(0x40).expect("idle, owned slot");
            assert_eq!(snap.writer(), Some(Pos(1, 1)));
            // A retained reader must be swept by the write section.
            cur.locked(0x40, |e| {
                e.readers.record(0, Pos(1, 1), eng_less, heb_less, precedes)
            });
            assert!(!cur.fast_write(0x40, Pos(1, 1)));
            drop(cur);
            assert_eq!(h.fast_hits(), 1);
        }
    }

    /// Read-by-current-writer at the store level: the entry's rule and
    /// the snapshot's mirror of it agree, under either policy, with and
    /// without another position's reader in the list.
    #[test]
    fn a_read_by_the_current_writer_hits_and_is_not_retained() {
        let never = |_: &Pos, _: &Pos| -> bool { panic!("comparator consulted") };
        let no_writer_check = |_: Option<Pos>| -> bool { panic!("writer re-checked") };
        for policy in [ReaderPolicy::All, ReaderPolicy::PerFutureLR] {
            let h = history(policy);
            let mut cur = h.cursor();
            cur.locked(0x40, |e| e.begin_write_epoch(Pos(1, 1)));
            assert!(cur.fast_read(0x40, 0, Pos(1, 1), never, never, never, no_writer_check));
            assert!(!cur.fast_read(0x40, 0, Pos(2, 2), eng_less, heb_less, precedes, |_| true));
            cur.locked(0x40, |e| {
                e.retain_reader(0, Pos(1, 1), never, never, never);
                assert!(e.readers.is_empty());
                e.retain_reader(0, Pos(2, 2), eng_less, heb_less, precedes);
                assert!(!e.readers.is_empty(), "another position is retained");
                e.retain_reader(0, Pos(1, 1), never, never, never);
            });
            // Past the interloper the writer's reads still hit, and its
            // next write must take the section to sweep it.
            assert!(cur.fast_read(0x40, 0, Pos(1, 1), never, never, never, no_writer_check));
            assert!(!cur.fast_write(0x40, Pos(1, 1)));
            drop(cur);
            assert_eq!(h.fast_hits(), 2, "{policy:?}");
        }
    }

    #[test]
    fn lr_triples_past_the_inline_one_bail_to_the_locked_path() {
        let h = history(ReaderPolicy::PerFutureLR);
        let mut cur = h.cursor();
        for fut in 0..3u32 {
            cur.locked(0x80, |e| {
                e.readers.record(
                    fut,
                    Pos(fut as u16, fut as u16),
                    eng_less,
                    heb_less,
                    precedes,
                )
            });
        }
        // The first future's triple is inline and still hits; later ones
        // spilled — the fast path bails even for a redundant read, and the
        // locked path still has all triples.
        assert!(cur.fast_read(0x80, 0, Pos(0, 0), eng_less, heb_less, precedes, |_| true));
        assert!(!cur.fast_read(0x80, 2, Pos(2, 2), eng_less, heb_less, precedes, |_| true));
        cur.locked(0x80, |e| {
            assert_eq!(e.readers.len(), 6);
            // A spilled future's pair still follows the update rule.
            e.readers.record(2, Pos(1, 9), eng_less, heb_less, precedes);
            let mut seen = vec![];
            e.readers.for_each(|p| seen.push(p));
            assert_eq!(
                seen,
                vec![
                    Pos(0, 0),
                    Pos(0, 0),
                    Pos(1, 1),
                    Pos(1, 1),
                    Pos(1, 9),
                    Pos(2, 2)
                ]
            );
        });
    }

    /// A quiescent sweep (`report()` runs three) must not look like a
    /// mutation: no packed word changes, so no snapshot is invalidated.
    #[test]
    fn sweeps_leave_every_packed_word_unchanged() {
        let h = history(ReaderPolicy::All);
        for a in 0..300u64 {
            h.locked(a * 8, |e| {
                if a % 3 == 0 {
                    e.begin_write_epoch(Pos(1, 1));
                }
                e.readers.record(0, Pos(2, 2), eng_less, heb_less, precedes)
            });
        }
        let before = h.packed_words();
        assert_eq!(before.len(), PAGE_SLOTS);
        let _ = (h.heap_bytes(), h.locations(), h.max_retained_readers());
        assert_eq!(h.packed_words(), before);
    }

    #[test]
    fn write_epoch_invalidates_fast_path_epoch() {
        let h = history(ReaderPolicy::PerFutureLR);
        let mut cur = h.cursor();
        cur.locked(0x40, |e| {
            e.readers.record(1, Pos(3, 3), eng_less, heb_less, precedes)
        });
        assert!(
            cur.fast_read(0x40, 1, Pos(3, 3), eng_less, heb_less, precedes, |w| {
                assert_eq!(w, None);
                true
            })
        );
        cur.locked(0x40, |e| e.begin_write_epoch(Pos(4, 4)));
        // Readers were cleared by the write epoch: the triple is gone, so
        // the fast path misses (the read must re-record under the lock).
        assert!(!cur.fast_read(0x40, 1, Pos(3, 3), eng_less, heb_less, precedes, |_| true));
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
                    // Distinct positions: a repeat of the last reader would
                    // be dropped, and this test counts retained readers.
                    h.locked((i % 64) * 16, |e| {
                        e.readers
                            .record(t, Pos(t as u16, i as u16), eng_less, heb_less, precedes)
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
        // charges every slot of the pages that hold them — at least 32
        // bytes each, the one-word position's slot — even before any
        // reader payload.
        let h = history(ReaderPolicy::All);
        for a in 0..100u64 {
            h.locked(a * 16, |e| e.begin_write_epoch(Pos(1, 1)));
        }
        let floor = h.page_allocs() as usize * PAGE_SLOTS * 32;
        assert!(floor > 0);
        assert!(h.heap_bytes() >= floor, "{} < {floor}", h.heap_bytes());
    }
}
