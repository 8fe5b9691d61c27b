//! Future-id sets — the `cp`/`gp` representation of §4.
//!
//! Because future ids are dense (`FutureId::index` is a bit position), a
//! set of futures is logically a bitmap. This is the concrete win the
//! paper reports over F-Order's per-node hash tables: membership is one
//! load, union is a word-wise OR, and sharing is an `Arc` clone.
//!
//! A [`FutureSet`] is an immutable value of one shape: an optional
//! `Arc`-shared directory of 512-bit chunks plus an inline **tail** of up
//! to `TAIL_CAP` (8) ids.
//!
//! * A set of at most `TAIL_CAP` ids is a tail with no directory: no heap.
//! * Adding an id while the tail has room copies only the struct; the
//!   directory is shared through one `Arc` clone, so the derivation
//!   allocates nothing.
//! * When the tail is full, its ids are flushed into a rebuilt directory:
//!   untouched chunks are shared by pointer and only the chunks an id
//!   lands in are copied.
//!
//! A flat `Box<[u64]>` set copies all `k/64` words on every derivation; a
//! set derived from a shared ancestor pays `O(1)` amortized chunk bytes
//! plus an `O(k/512)` pointer directory once per `TAIL_CAP` derivations.
//! Every derivation reports the bytes it freshly allocated, which is what
//! the Fig. 5 / `k_scaling` accounting ([`SetStats`]) records.
//!
//! Invariants: tail ids are sorted, distinct and **not** in the directory;
//! `count` is the directory's popcount plus the tail length; no directory
//! chunk is empty, and each caches its popcount.
//!
//! The [`merge`] helper implements the §3.4 discipline: a node with one
//! parent shares its parent's set (pointer copy); a node with two parents
//! allocates a union only when *each side contains something the other
//! lacks* — which Xu et al. show happens O(k) times in total. Whether a
//! merge shares or allocates depends only on set *contents*.
//!
//! The chunk primitives are plain 8-lane loops over one `[u64; 8]` chunk,
//! one cache line, left for LLVM to vectorize.

use std::mem::size_of;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sfrd_dag::FutureId;

/// Words per chunk (512 bits).
const CHUNK_WORDS: usize = 8;
/// Bits per chunk.
const CHUNK_BITS: usize = CHUNK_WORDS * 64;
/// Ids held in the inline tail: derivations between directory rebuilds.
const TAIL_CAP: usize = 8;

/// One chunk's payload: 512 bits as eight 64-bit lanes.
type ChunkWords = [u64; CHUNK_WORDS];

/// Result of a fused chunk merge ([`merge512`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Merge512 {
    /// `a | b == a`: the left chunk already holds the union (also the
    /// verdict when `a == b`).
    Left,
    /// `a | b == b` and `b != a`: the right chunk holds the union.
    Right,
    /// Genuinely mixed: the fresh union words.
    Fresh(ChunkWords),
}

/// `sub ⊆ sup` over the whole chunk (no early exit — one pass of and-not
/// lanes folded to a single zero test beats a branchy loop).
#[inline]
fn subset512(sub: &ChunkWords, sup: &ChunkWords) -> bool {
    let mut acc = 0u64;
    for (a, b) in sub.iter().zip(sup.iter()) {
        acc |= a & !b;
    }
    acc == 0
}

/// Chunk population count.
#[inline]
fn popcnt512(a: &ChunkWords) -> u32 {
    a.iter().map(|w| w.count_ones()).sum()
}

/// Fused union step for the copy-on-write merge path: computes `a | b`
/// and detects collapse onto either input in one pass over the lanes.
#[inline]
fn merge512(a: &ChunkWords, b: &ChunkWords) -> Merge512 {
    let mut out = *a;
    let (mut grew_a, mut grew_b) = (false, false);
    for (o, (&x, &y)) in out.iter_mut().zip(a.iter().zip(b.iter())) {
        let u = x | y;
        grew_a |= u != x;
        grew_b |= u != y;
        *o = u;
    }
    if !grew_a {
        return Merge512::Left;
    }
    if !grew_b {
        return Merge512::Right;
    }
    Merge512::Fresh(out)
}

/// OR sorted absolute ids into a chunk based at `base`, one *word* at a
/// time: ids landing in the same 64-bit lane are folded into a single
/// mask before the store instead of one read-modify-write per id.
#[inline]
fn set_bits512(words: &mut ChunkWords, ids: &[u32], base: u32) {
    let mut i = 0;
    while i < ids.len() {
        let off = ids[i] - base;
        let wi = (off / 64) as usize;
        let mut mask = 0u64;
        while i < ids.len() {
            let off = ids[i] - base;
            if (off / 64) as usize != wi {
                break;
            }
            mask |= 1 << (off % 64);
            i += 1;
        }
        words[wi] |= mask;
    }
}

/// One 512-bit block with a cached popcount.
#[derive(Debug)]
struct Chunk {
    words: ChunkWords,
    ones: u32,
}

impl Chunk {
    fn new(words: ChunkWords) -> Self {
        let ones = popcnt512(&words);
        Self { words, ones }
    }
}

/// The shared chunk directory: slot `ci` holds ids `[512·ci, 512·(ci+1))`.
type Dir = [Option<Arc<Chunk>>];

/// Heap bytes of a directory of `slots` slots: the slots plus the `Arc`'s
/// two reference counts.
fn dir_bytes(slots: usize) -> usize {
    2 * size_of::<usize>() + slots * size_of::<Option<Arc<Chunk>>>()
}

/// Slot `ci` of an optional directory.
fn slot(dir: Option<&Dir>, ci: usize) -> Option<&Arc<Chunk>> {
    dir?.get(ci)?.as_ref()
}

/// An immutable set of future ids.
#[derive(Debug, Clone)]
pub struct FutureSet {
    /// Ids in 512-bit chunks; `None` until the tail first overflows.
    dir: Option<Arc<Dir>>,
    /// Sorted ids not in `dir`; the first `tail_len` are live.
    tail: [u32; TAIL_CAP],
    tail_len: u8,
    /// Members: the directory's popcount plus `tail_len`.
    count: u32,
}

impl Default for FutureSet {
    fn default() -> Self {
        Self::empty()
    }
}

/// Equality is content equality, whatever the sharing.
impl PartialEq for FutureSet {
    fn eq(&self, other: &Self) -> bool {
        self.count == other.count && self.is_subset(other)
    }
}
impl Eq for FutureSet {}

impl FutureSet {
    /// The empty set.
    pub fn empty() -> Self {
        Self {
            dir: None,
            tail: [0; TAIL_CAP],
            tail_len: 0,
            count: 0,
        }
    }

    /// Singleton set.
    pub fn singleton(f: FutureId) -> Self {
        Self::empty().with(f)
    }

    fn tail(&self) -> &[u32] {
        &self.tail[..self.tail_len as usize]
    }

    fn chunk(&self, ci: usize) -> Option<&Arc<Chunk>> {
        slot(self.dir.as_deref(), ci)
    }

    /// Membership test. Ids past the directory read as absent, so sets
    /// built when fewer futures existed keep working as `k` grows.
    #[inline]
    pub fn contains(&self, f: FutureId) -> bool {
        let id = f.index();
        let in_dir = self
            .chunk(id / CHUNK_BITS)
            .is_some_and(|c| c.words[id % CHUNK_BITS / 64] >> (id % 64) & 1 == 1);
        in_dir || self.tail().binary_search(&(id as u32)).is_ok()
    }

    /// Logical 64-bit words spanned by the directory and the tail.
    fn words_len(&self) -> usize {
        let dir_words = self.dir.as_ref().map_or(0, |d| d.len() * CHUNK_WORDS);
        let tail_words = self.tail().last().map_or(0, |&id| id as usize / 64 + 1);
        dir_words.max(tail_words)
    }

    /// The logical word at index `wi` (directory OR tail bits; zero past
    /// the end).
    fn word_at(&self, wi: usize) -> u64 {
        let mut w = self
            .chunk(wi / CHUNK_WORDS)
            .map_or(0, |c| c.words[wi % CHUNK_WORDS]);
        for &id in self.tail() {
            if id as usize / 64 == wi {
                w |= 1 << (id % 64);
            }
        }
        w
    }

    fn tail_touches(&self, ci: usize) -> bool {
        self.tail().iter().any(|&id| id as usize / CHUNK_BITS == ci)
    }

    /// A copy of `self` with `f` added.
    pub fn with(&self, f: FutureId) -> Self {
        self.with_counted(f).0
    }

    /// `self ∪ {f}` and the heap bytes building it allocated: none while
    /// the tail has room, one directory rebuild when it is full.
    fn with_counted(&self, f: FutureId) -> (Self, usize) {
        if self.contains(f) {
            return (self.clone(), 0);
        }
        let id = f.index() as u32;
        let at = self.tail().partition_point(|&t| t < id);
        if self.tail().len() < TAIL_CAP {
            let mut out = self.clone();
            out.tail.copy_within(at..self.tail().len(), at + 1);
            out.tail[at] = id;
            out.tail_len += 1;
            out.count += 1;
            return (out, 0);
        }
        let mut ids = self.tail().to_vec();
        ids.insert(at, id);
        Self::build(self.dir.as_deref(), None, &ids)
    }

    /// Set union.
    pub fn union(&self, other: &Self) -> Self {
        self.union_counted(other).0
    }

    /// `self ∪ other` and the heap bytes building it allocated. With at
    /// most one directory between the two sets, the union shares it and
    /// keeps the tails' remaining ids in its own tail while they fit;
    /// otherwise the directories (and the tails) are merged chunk by chunk.
    fn union_counted(&self, other: &Self) -> (Self, usize) {
        let mut ids: Vec<u32> = self.tail().iter().chain(other.tail()).copied().collect();
        ids.sort_unstable();
        ids.dedup();
        if let (Some(a), Some(b)) = (&self.dir, &other.dir) {
            if !Arc::ptr_eq(a, b) {
                return Self::build(Some(a), Some(b), &ids);
            }
        }
        let base = if self.dir.is_some() { self } else { other };
        let mut out = Self {
            dir: base.dir.clone(),
            count: base.count - u32::from(base.tail_len),
            ..Self::empty()
        };
        ids.retain(|&id| !out.contains(FutureId(id)));
        if ids.len() > TAIL_CAP {
            return Self::build(out.dir.as_deref(), None, &ids);
        }
        out.tail[..ids.len()].copy_from_slice(&ids);
        out.tail_len = ids.len() as u8;
        out.count += ids.len() as u32;
        (out, 0)
    }

    /// The tail-free set `a ∪ b ∪ ids` (`ids` sorted) and the heap bytes it
    /// allocated: a fresh directory, plus one chunk for each slot whose
    /// content no input chunk already holds. Every other slot shares an
    /// input chunk by pointer.
    fn build(a: Option<&Dir>, b: Option<&Dir>, ids: &[u32]) -> (Self, usize) {
        let slots = |d: Option<&Dir>| d.map_or(0, <[_]>::len);
        let id_slots = ids.last().map_or(0, |&id| id as usize / CHUNK_BITS + 1);
        let nslots = slots(a).max(slots(b)).max(id_slots);
        let mut dir = Vec::with_capacity(nslots);
        let (mut count, mut bytes) = (0, dir_bytes(nslots));
        let mut rest = ids;
        for ci in 0..nslots {
            let split = rest.partition_point(|&id| (id as usize) < (ci + 1) * CHUNK_BITS);
            let (here, later) = rest.split_at(split);
            rest = later;
            let chunk = build_chunk(
                slot(a, ci),
                slot(b, ci),
                here,
                (ci * CHUNK_BITS) as u32,
                &mut bytes,
            );
            count += chunk.as_ref().map_or(0, |c| c.ones);
            dir.push(chunk);
        }
        let set = Self {
            dir: Some(dir.into()),
            count,
            ..Self::empty()
        };
        (set, bytes)
    }

    /// `self ⊆ other`. Two sets on the same directory are compared by their
    /// tails alone (tail ids are never in the directory); otherwise every
    /// directory chunk is checked, skipping chunks `other` shares by
    /// pointer, and returning at the first one holding an id `other` lacks.
    pub fn is_subset(&self, other: &Self) -> bool {
        if self.count > other.count {
            return false;
        }
        let same_dir = match (&self.dir, &other.dir) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (a, b) => a.is_none() && b.is_none(),
        };
        if same_dir {
            return self
                .tail()
                .iter()
                .all(|id| other.tail().binary_search(id).is_ok());
        }
        if !self.tail().iter().all(|&id| other.contains(FutureId(id))) {
            return false;
        }
        let mut chunks = self.dir.iter().flat_map(|d| d.iter().enumerate());
        chunks.all(|(ci, x)| {
            let Some(x) = x else { return true };
            match other.chunk(ci) {
                Some(y) if Arc::ptr_eq(x, y) => true,
                Some(y) if !other.tail_touches(ci) => subset512(&x.words, &y.words),
                _ => (0..CHUNK_WORDS)
                    .all(|wo| x.words[wo] & !other.word_at(ci * CHUNK_WORDS + wo) == 0),
            }
        })
    }

    /// Number of futures in the set (O(1): cached).
    #[inline]
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// True when no future is present.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Resident heap bytes of this set's payload: the directory and every
    /// chunk it reaches (shared ones counted in full — a per-set view,
    /// distinct from the cumulative [`SetStatsSnapshot::bytes`]).
    pub fn heap_bytes(&self) -> usize {
        self.dir.as_ref().map_or(0, |d| {
            dir_bytes(d.len()) + d.iter().flatten().count() * size_of::<Chunk>()
        })
    }

    /// Iterate members (ascending), walking set bits with `trailing_zeros`
    /// — O(population + words), not O(words × 64).
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            wi: 0,
            cur: self.word_at(0),
            nwords: self.words_len(),
        }
    }
}

/// Slot of a [`FutureSet::build`]: the chunk holding `x ∪ y ∪ ids` (`ids`
/// sorted, all within the chunk based at `base`). An input chunk that
/// already holds it is shared by pointer; a fresh one adds its bytes to
/// `bytes`.
fn build_chunk(
    x: Option<&Arc<Chunk>>,
    y: Option<&Arc<Chunk>>,
    ids: &[u32],
    base: u32,
    bytes: &mut usize,
) -> Option<Arc<Chunk>> {
    let y = y.filter(|y| !x.is_some_and(|x| Arc::ptr_eq(x, y)));
    let (held, mut words) = match (x, y) {
        (Some(x), Some(y)) => match merge512(&x.words, &y.words) {
            Merge512::Left => (Some(x), x.words),
            Merge512::Right => (Some(y), y.words),
            Merge512::Fresh(words) => (None, words),
        },
        (Some(c), None) | (None, Some(c)) => (Some(c), c.words),
        (None, None) if ids.is_empty() => return None,
        (None, None) => (None, [0; CHUNK_WORDS]),
    };
    set_bits512(&mut words, ids, base);
    match held {
        Some(c) if c.words == words => Some(Arc::clone(c)),
        _ => {
            *bytes += size_of::<Chunk>();
            Some(Arc::new(Chunk::new(words)))
        }
    }
}

/// Ascending iterator over a [`FutureSet`]'s members.
pub struct Iter<'a> {
    set: &'a FutureSet,
    wi: usize,
    cur: u64,
    nwords: usize,
}

impl Iterator for Iter<'_> {
    type Item = FutureId;

    fn next(&mut self) -> Option<FutureId> {
        loop {
            if self.cur != 0 {
                let b = self.cur.trailing_zeros();
                self.cur &= self.cur - 1; // clear lowest set bit
                return Some(FutureId((self.wi * 64) as u32 + b));
            }
            self.wi += 1;
            if self.wi >= self.nwords {
                return None;
            }
            self.cur = self.set.word_at(self.wi);
        }
    }
}

/// Allocation/merge counters, reported in the Fig. 5 memory table.
#[derive(Debug, Default)]
pub struct SetStats {
    allocations: AtomicU64,
    bytes: AtomicU64,
    merges: AtomicU64,
}

/// A point-in-time copy of the [`SetStats`] counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SetStatsSnapshot {
    /// Sets allocated.
    pub allocations: u64,
    /// Cumulative payload bytes the allocations freshly took: directories
    /// and chunks. Shared chunks and the set struct itself cost nothing
    /// here; the per-set constant is what `allocations` counts.
    pub bytes: u64,
    /// True merges (both sides contributed members).
    pub merges: u64,
}

impl SetStats {
    /// Record one allocated set (or F-Order table) whose payload freshly
    /// took `bytes` heap bytes.
    pub fn note_alloc(&self, bytes: usize) {
        self.allocations.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Record one true merge.
    pub fn note_merge(&self) {
        self.merges.fetch_add(1, Ordering::Relaxed);
    }

    /// Every counter at once.
    pub fn snapshot(&self) -> SetStatsSnapshot {
        SetStatsSnapshot {
            allocations: self.allocations.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            merges: self.merges.load(Ordering::Relaxed),
        }
    }
}

/// Merge two shared sets with the pointer-sharing discipline of §3.4:
/// reuse a side when it already covers the other, allocate a union only
/// when both sides contain something the other lacks.
///
/// The ladder, cheapest first — none of it changes the verdict, only how
/// fast a *share* is recognized: pointer equality, then the cached lengths
/// and the subset scans of [`FutureSet::is_subset`], then the union.
pub fn merge(a: &Arc<FutureSet>, b: &Arc<FutureSet>, stats: &SetStats) -> Arc<FutureSet> {
    if Arc::ptr_eq(a, b) || b.is_subset(a) {
        return Arc::clone(a);
    }
    if a.is_subset(b) {
        return Arc::clone(b);
    }
    stats.note_merge();
    let (u, bytes) = a.union_counted(b);
    stats.note_alloc(bytes);
    Arc::new(u)
}

/// `set ∪ {f}` with sharing when `f` is already present.
pub fn with_future(set: &Arc<FutureSet>, f: FutureId, stats: &SetStats) -> Arc<FutureSet> {
    if set.contains(f) {
        return Arc::clone(set);
    }
    let (s, bytes) = set.with_counted(f);
    stats.note_alloc(bytes);
    Arc::new(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn f(i: u32) -> FutureId {
        FutureId(i)
    }

    fn ids(s: &FutureSet) -> Vec<u32> {
        s.iter().map(|id| id.0).collect()
    }

    /// `from` grown by `ids` one derivation at a time, and the bytes the
    /// derivations took.
    fn grown(from: &FutureSet, ids: impl IntoIterator<Item = u32>) -> (FutureSet, usize) {
        ids.into_iter().fold((from.clone(), 0), |(s, total), id| {
            let (next, bytes) = s.with_counted(f(id));
            (next, total + bytes)
        })
    }

    #[test]
    fn singleton_and_contains() {
        let s = FutureSet::singleton(f(70));
        assert!(s.contains(f(70)));
        assert!(!s.contains(f(69)));
        assert!(!s.contains(f(700))); // beyond allocated words
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn with_extends_words() {
        let s = FutureSet::empty().with(f(3)).with(f(200));
        assert!(s.contains(f(3)) && s.contains(f(200)));
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![f(3), f(200)]);
    }

    #[test]
    fn union_and_subset() {
        let a = FutureSet::singleton(f(1)).with(f(64));
        let b = FutureSet::singleton(f(2));
        let u = a.union(&b);
        assert!(a.is_subset(&u) && b.is_subset(&u));
        assert!(!u.is_subset(&a));
        assert_eq!(u.len(), 3);
        // Subset across different word lengths.
        let small = FutureSet::singleton(f(0));
        assert!(small.is_subset(&small.with(f(500))));
        assert!(!FutureSet::singleton(f(500)).is_subset(&small));
    }

    #[test]
    fn empty_is_subset_of_everything() {
        let e = FutureSet::empty();
        assert!(e.is_empty());
        assert!(e.is_subset(&FutureSet::singleton(f(9))));
        assert!(e.is_subset(&e));
    }

    #[test]
    fn merge_shares_pointers_when_possible() {
        let stats = SetStats::default();
        let a = Arc::new(FutureSet::singleton(f(1)).with(f(2)));
        let b = Arc::new(FutureSet::singleton(f(1)));
        let m = merge(&a, &b, &stats);
        assert!(Arc::ptr_eq(&m, &a));
        assert_eq!(stats.snapshot().merges, 0, "no true merge expected");
        let c = Arc::new(FutureSet::singleton(f(9)));
        let m2 = merge(&a, &c, &stats);
        assert!(m2.contains(f(1)) && m2.contains(f(9)));
        assert_eq!(stats.snapshot().merges, 1);
    }

    #[test]
    fn with_future_shares_when_present() {
        let stats = SetStats::default();
        let a = Arc::new(FutureSet::singleton(f(4)));
        let same = with_future(&a, f(4), &stats);
        assert!(Arc::ptr_eq(&a, &same));
        let grown = with_future(&a, f(5), &stats);
        assert!(grown.contains(f(5)));
        assert_eq!(stats.snapshot().allocations, 1);
    }

    /// A strided chain of 200 ids promotes from a heap-free tail to a
    /// chunked directory, and chunk sharing shows in the byte count: far
    /// below one chunk copy per directory rebuild.
    #[test]
    fn adaptive_promotes_through_tiers() {
        let stats = SetStats::default();
        let mut s = Arc::new(FutureSet::empty());
        for i in 0..200u32 {
            s = with_future(&s, f(i * 3), &stats); // strided: crosses words
            if i < TAIL_CAP as u32 {
                assert_eq!(
                    s.heap_bytes(),
                    0,
                    "the first {TAIL_CAP} ids stay in the tail"
                );
            }
        }
        assert_eq!(s.len(), 200);
        assert!((0..200).all(|i| s.contains(f(i * 3))));
        assert!(!s.contains(f(1)));
        assert_eq!(ids(&s), (0..200).map(|i| i * 3).collect::<Vec<_>>());
        // 200 ids span 600 bits: two chunks. Each rebuild copies only the
        // chunk its flushed ids land in and shares the other.
        let snap = stats.snapshot();
        let rebuilds = 200 / (TAIL_CAP + 1);
        let unshared = rebuilds * (dir_bytes(2) + 2 * size_of::<Chunk>());
        assert!(
            (snap.bytes as usize) < unshared,
            "{} bytes: chunks were copied, not shared",
            snap.bytes
        );
        assert!(s.heap_bytes() > 0);
    }

    /// A linear chain shares without a true merge, in either order and
    /// across a directory rebuild; two siblings of one parent do merge.
    #[test]
    fn linear_chains_share_and_siblings_merge() {
        let stats = SetStats::default();
        let base = Arc::new(FutureSet::empty());
        let mut grown = Arc::clone(&base);
        for id in 1..=2 * TAIL_CAP as u32 {
            grown = with_future(&grown, f(id), &stats);
        }
        assert!(Arc::ptr_eq(&merge(&base, &grown, &stats), &grown));
        assert!(Arc::ptr_eq(&merge(&grown, &base, &stats), &grown));
        let left = with_future(&grown, f(100), &stats);
        let right = with_future(&grown, f(101), &stats);
        assert!(Arc::ptr_eq(&merge(&grown, &left, &stats), &left));
        assert_eq!(stats.snapshot().merges, 0);
        let u = merge(&left, &right, &stats);
        assert!(u.contains(f(100)) && u.contains(f(101)));
        assert_eq!(u.len(), 2 * TAIL_CAP + 2);
        assert_eq!(stats.snapshot().merges, 1);
    }

    #[test]
    fn tail_buffer_defers_allocation() {
        // Nine ids overflow the tail: a directory over chunks 0 and 1.
        let (mut s, bytes) = grown(&FutureSet::empty(), [1, 600, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(bytes, dir_bytes(2) + 2 * size_of::<Chunk>());
        for i in 0..TAIL_CAP as u32 {
            let (next, bytes) = s.with_counted(f(10_000 + i));
            assert_eq!(bytes, 0, "tail insert {i} must be alloc-free");
            s = next;
        }
        // Tail full: the next insert flushes into a rebuilt directory that
        // shares the untouched chunk 1 and copies chunks 0 and 19.
        let (flushed, bytes) = s.with_counted(f(42));
        assert_eq!(bytes, dir_bytes(20) + 2 * size_of::<Chunk>());
        assert!(Arc::ptr_eq(s.chunk(1).unwrap(), flushed.chunk(1).unwrap()));
        assert_eq!(flushed.len(), 9 + TAIL_CAP + 1);
        assert!(flushed.contains(f(42)) && flushed.contains(f(600)) && flushed.contains(f(10_003)));
    }

    #[test]
    fn union_shares_equal_chunks() {
        // 504 = 56 flushes of 9 ids: all in the directory, tail empty.
        let (a, _) = grown(&FutureSet::empty(), 0..504);
        let (b, _) = grown(&a, 9000..9009);
        let (c, _) = grown(&a, 600..609);
        // Distinct directories sharing chunk 0 by pointer, with chunk 17
        // only in b and chunk 1 only in c: the union allocates its
        // directory and no chunk.
        let (u, bytes) = b.union_counted(&c);
        assert_eq!(u.len(), 504 + 18);
        assert_eq!(bytes, dir_bytes(18));
        assert!(b.is_subset(&u) && c.is_subset(&u) && !u.is_subset(&b));
        assert!(Arc::ptr_eq(a.chunk(0).unwrap(), u.chunk(0).unwrap()));
        // Two siblings of one parent union on the parent's directory.
        let (l, r) = (a.with(f(700)), a.with(f(701)));
        let (u, bytes) = l.union_counted(&r);
        assert_eq!(bytes, 0, "sibling tails fit one tail");
        assert_eq!(u.len(), 506);
        assert!(l.is_subset(&u) && r.is_subset(&u) && !l.is_subset(&r));
    }

    #[test]
    fn subset_respects_tail_bits() {
        let (a, _) = grown(&FutureSet::empty(), 5..14);
        let b = a.with(f(700)); // 700 lives in b's tail
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert_eq!(ids(&b), vec![5, 6, 7, 8, 9, 10, 11, 12, 13, 700]);
    }

    #[test]
    fn ids_roundtrip_across_chunks() {
        let input: Vec<u32> = vec![0, 63, 64, 511, 512, 513, 4096, 4097, 9000, 9001];
        let (s, _) = grown(&FutureSet::empty(), input.iter().copied());
        assert_eq!(ids(&s), input);
        assert_eq!(s.len(), input.len());
        assert!(input.iter().all(|&i| s.contains(f(i))));
        assert!(!s.contains(f(1)) && !s.contains(f(4098)));
        assert_eq!(s, s.union(&FutureSet::singleton(f(4096))));
    }

    #[test]
    fn growth_chain_payload_bytes_stay_bounded() {
        // Grow one set 4096 ids long. A flat bitmap copied per derivation
        // would allocate 8 * Σ⌈i/64⌉ ≈ 1.06 MB; structural sharing measures
        // 56 952 bytes (deterministic), so 64 KiB is the regression ceiling.
        let stats = SetStats::default();
        let mut s = Arc::new(FutureSet::empty());
        for id in 0..4096u32 {
            s = with_future(&s, f(id), &stats);
        }
        assert_eq!(s.len(), 4096);
        let bytes = stats.snapshot().bytes;
        assert!(bytes <= 64 << 10, "growth-chain payload bytes: {bytes}");
    }

    fn sample(seed: u64) -> ChunkWords {
        // SplitMix64: deterministic, fills all lanes with varied bits.
        let mut s = seed;
        let mut out = [0u64; CHUNK_WORDS];
        for w in &mut out {
            s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            *w = z ^ (z >> 31);
        }
        out
    }

    /// Bit `i` of a chunk, the naive way.
    fn bit(c: &ChunkWords, i: u32) -> bool {
        c[i as usize / 64] >> (i % 64) & 1 == 1
    }

    /// `a | b` one bit at a time.
    fn naive_union(a: &ChunkWords, b: &ChunkWords) -> ChunkWords {
        let mut out = [0u64; CHUNK_WORDS];
        for i in (0..512u32).filter(|&i| bit(a, i) || bit(b, i)) {
            out[i as usize / 64] |= 1 << (i % 64);
        }
        out
    }

    #[test]
    fn kernels_agree_on_primitives() {
        for seed in 0..64u64 {
            let a = sample(seed);
            let b = sample(seed.wrapping_mul(31).wrapping_add(7));
            let sup = naive_union(&a, &b);
            assert!(subset512(&a, &sup), "subset512 seed {seed}");
            assert!(subset512(&a, &a));
            assert_eq!(
                subset512(&sup, &a),
                (0..512).all(|i| !bit(&sup, i) || bit(&a, i)),
                "subset512 reverse seed {seed}"
            );
            assert_eq!(
                popcnt512(&a),
                (0..512).filter(|&i| bit(&a, i)).count() as u32
            );
        }
    }

    #[test]
    fn merge512_collapses_and_counts() {
        for seed in 0..64u64 {
            let a = sample(seed);
            let b = sample(seed.wrapping_mul(31).wrapping_add(7));
            let sup = naive_union(&a, &b);
            // Random chunks never contain each other, so the plain merge
            // is fresh with the exact union.
            assert_eq!(merge512(&a, &b), Merge512::Fresh(sup), "fresh seed {seed}");
            // A side already holding the union collapses onto it; equal
            // inputs report `Left`.
            assert_eq!(merge512(&sup, &a), Merge512::Left, "seed {seed}");
            assert_eq!(merge512(&a, &sup), Merge512::Right, "seed {seed}");
            assert_eq!(merge512(&a, &a), Merge512::Left, "seed {seed}");
        }
    }

    #[test]
    fn set_bits512_matches_per_id_inserts() {
        let base = 512u32;
        let ids = [512u32, 513, 575, 576, 700, 1000, 1023];
        let mut via_kernel = sample(3);
        let mut via_loop = via_kernel;
        set_bits512(&mut via_kernel, &ids, base);
        for &id in &ids {
            let b = (id - base) as usize;
            via_loop[b / 64] |= 1 << (b % 64);
        }
        assert_eq!(via_kernel, via_loop);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..Default::default() })]

        /// `set_bits512` matches per-id read-modify-write inserts for any
        /// sorted id run.
        #[test]
        fn set_bits512_agrees_with_naive(codes in proptest::collection::vec(any::<u64>(), 1..64)) {
            let base = (codes[0] % 8) as u32 * 512;
            let mut offs: Vec<u32> = codes[1..].iter().map(|c| (c % 512) as u32).collect();
            offs.sort_unstable();
            offs.dedup();
            let ids: Vec<u32> = offs.iter().map(|o| base + o).collect();
            let mut via_kernel = sample(codes[0]);
            let mut via_loop = via_kernel;
            set_bits512(&mut via_kernel, &ids, base);
            for &id in &ids {
                let b = (id - base) as usize;
                via_loop[b / 64] |= 1 << (b % 64);
            }
            prop_assert_eq!(via_kernel, via_loop);
        }
    }
}
