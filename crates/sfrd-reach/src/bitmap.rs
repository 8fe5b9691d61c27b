//! Future-ID sets — the `cp`/`gp` representation of §4.
//!
//! Because future ids are dense (`FutureId::index` is a bit position), a
//! set of futures is logically a bitmap. This is the concrete win the
//! paper reports over F-Order's per-node hash tables: membership is one
//! load, union is a word-wise OR, and sharing is an `Arc` clone.
//!
//! Sets are immutable once built; "mutation" builds a new set. The
//! representation has three tiers that grow with the set:
//! [`Repr::Inline`] (a few ids packed in the struct, zero heap),
//! [`Repr::Sparse`] (a small sorted id array), and [`Repr::Chunked`]
//! (persistent `Arc`-shared 512-bit chunks with path-copy-on-write, see
//! [`crate::chunked`]). Deriving from a shared ancestor allocates only
//! what actually changed instead of the whole table.
//!
//! Every set carries a **monotone lineage stamp** ([`Lineage`]):
//! `cp`/`gp` sets only ever grow along program order, so
//! when one set provably descends from another, the descendant is a
//! superset and [`merge`]'s subset pre-checks can exit in O(1) without
//! scanning a word. Soundness relies on CAS-linearized chains — see the
//! type's docs and DESIGN.md §9.
//!
//! The [`merge`] helper implements the §3.4 discipline: a node with one
//! parent shares its parent's table (pointer copy); a node with two
//! parents allocates a union only when *each side contains something the
//! other lacks* — which Xu et al. show happens O(k) times in total.
//! Whether a merge shares or allocates depends only on set *contents*,
//! never on the tier.

use sfrd_runtime::sync::AtomicU32;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sfrd_dag::FutureId;

use crate::chunked::{AllocDelta, Chunked};

/// Ids held directly in the struct before spilling to a heap array.
const INLINE_CAP: usize = 8;
/// Largest sorted-array set; one past this promotes to chunked.
const SPARSE_MAX: usize = 32;

/// Monotone-lineage stamp: a CAS-linearized derivation chain.
///
/// `cp`/`gp` sets are monotone — every derivation only adds elements —
/// so along a *linear* chain of derivations, a higher version is always
/// a superset of a lower one. The chain is kept linear by construction:
/// a child extends its parent's chain only by winning
/// `chain.compare_exchange(v, v + 1)`; concurrent or repeated
/// derivations from the same parent lose the CAS and start fresh chains
/// (merely missing the fast path, never faking an ordering). Therefore
/// `descends_from` ⇒ superset, and [`merge`] may share the descendant
/// without a subset scan.
#[derive(Debug, Clone)]
struct Lineage {
    chain: Arc<AtomicU32>,
    version: u32,
}

impl Lineage {
    fn fresh() -> Self {
        Self {
            chain: Arc::new(AtomicU32::new(0)),
            version: 0,
        }
    }

    /// Stamp for a set derived from `self` by adding elements: extend the
    /// chain if we are its unique linear successor, else branch off.
    fn child(&self) -> Self {
        if self.version != u32::MAX
            && self
                .chain
                .compare_exchange(
                    self.version,
                    self.version + 1,
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                )
                .is_ok()
        {
            return Self {
                chain: Arc::clone(&self.chain),
                version: self.version + 1,
            };
        }
        Self::fresh()
    }

    /// `self` was derived (transitively, linearly) from `anc` ⇒ superset.
    #[inline]
    fn descends_from(&self, anc: &Self) -> bool {
        Arc::ptr_eq(&self.chain, &anc.chain) && self.version >= anc.version
    }
}

/// The concrete representation tiers.
#[derive(Debug, Clone)]
enum Repr {
    /// Up to [`INLINE_CAP`] sorted ids in the struct; zero heap.
    Inline { ids: [u32; INLINE_CAP], len: u8 },
    /// Sorted id array, at most [`SPARSE_MAX`] long.
    Sparse(Box<[u32]>),
    /// Persistent chunked bitmap with structural sharing.
    Chunked(Chunked),
}

/// An immutable set of future ids.
#[derive(Debug, Clone)]
pub struct FutureSet {
    repr: Repr,
    lineage: Lineage,
}

impl Default for FutureSet {
    fn default() -> Self {
        Self::empty()
    }
}

/// Equality is content equality, independent of tier or lineage.
impl PartialEq for FutureSet {
    fn eq(&self, other: &Self) -> bool {
        let n = self.words_len().max(other.words_len());
        (0..n).all(|wi| self.word_at(wi) == other.word_at(wi))
    }
}
impl Eq for FutureSet {}

impl FutureSet {
    /// The empty set.
    pub fn empty() -> Self {
        Self {
            repr: Repr::Inline {
                ids: [0; INLINE_CAP],
                len: 0,
            },
            lineage: Lineage::fresh(),
        }
    }

    /// Singleton set.
    pub fn singleton(f: FutureId) -> Self {
        let mut ids = [0; INLINE_CAP];
        ids[0] = f.index() as u32;
        Self {
            repr: Repr::Inline { ids, len: 1 },
            lineage: Lineage::fresh(),
        }
    }

    fn small_ids(&self) -> Option<&[u32]> {
        match &self.repr {
            Repr::Inline { ids, len } => Some(&ids[..*len as usize]),
            Repr::Sparse(ids) => Some(ids),
            Repr::Chunked(_) => None,
        }
    }

    /// Membership test. Missing words read as zero, so sets built when
    /// fewer futures existed keep working as `k` grows.
    #[inline]
    pub fn contains(&self, f: FutureId) -> bool {
        let id = f.index() as u32;
        match &self.repr {
            Repr::Inline { ids, len } => ids[..*len as usize].binary_search(&id).is_ok(),
            Repr::Sparse(ids) => ids.binary_search(&id).is_ok(),
            Repr::Chunked(c) => c.contains(id),
        }
    }

    /// Logical 64-bit words spanned by this set's members.
    fn words_len(&self) -> usize {
        match &self.repr {
            Repr::Inline { .. } | Repr::Sparse(_) => self
                .small_ids()
                .unwrap()
                .last()
                .map_or(0, |&id| id as usize / 64 + 1),
            Repr::Chunked(c) => c.words_len(),
        }
    }

    /// The logical word at index `wi` (zero past the end) — the
    /// tier-independent view used by equality and the word-walking
    /// iterator.
    fn word_at(&self, wi: usize) -> u64 {
        match &self.repr {
            Repr::Inline { .. } | Repr::Sparse(_) => {
                let mut w = 0;
                for &id in self.small_ids().unwrap() {
                    if id as usize / 64 == wi {
                        w |= 1 << (id % 64);
                    }
                }
                w
            }
            Repr::Chunked(c) => c.word_at(wi),
        }
    }

    /// A copy of `self` with `f` added (allocation delta discarded).
    pub fn with(&self, f: FutureId) -> Self {
        self.with_counted(f).0
    }

    /// `self ∪ {f}` plus the true allocation cost of building it.
    ///
    /// Sets pay for their tier: inline derivations are heap-free, sparse
    /// ones copy a small id array, and chunked ones usually just buffer
    /// the id in the inline tail (zero chunk bytes — see
    /// [`crate::chunked`]).
    pub fn with_counted(&self, f: FutureId) -> (Self, AllocDelta) {
        let id = f.index() as u32;
        let lineage = self.lineage.child();
        match &self.repr {
            Repr::Inline { .. } | Repr::Sparse(_) => {
                let cur = self.small_ids().unwrap();
                if cur.binary_search(&id).is_ok() {
                    return (self.clone(), AllocDelta::default());
                }
                let mut ids: Vec<u32> = Vec::with_capacity(cur.len() + 1);
                let at = cur.partition_point(|&t| t < id);
                ids.extend_from_slice(&cur[..at]);
                ids.push(id);
                ids.extend_from_slice(&cur[at..]);
                let (repr, delta) = Self::small_from_sorted(ids);
                (Self { repr, lineage }, delta)
            }
            Repr::Chunked(c) => {
                if c.contains(id) {
                    return (self.clone(), AllocDelta::default());
                }
                let (next, delta) = c.with(id);
                (
                    Self {
                        repr: Repr::Chunked(next),
                        lineage,
                    },
                    delta,
                )
            }
        }
    }

    /// Pick the right tier for a sorted, deduplicated id list.
    fn small_from_sorted(ids: Vec<u32>) -> (Repr, AllocDelta) {
        if ids.len() <= INLINE_CAP {
            let mut arr = [0; INLINE_CAP];
            arr[..ids.len()].copy_from_slice(&ids);
            (
                Repr::Inline {
                    ids: arr,
                    len: ids.len() as u8,
                },
                AllocDelta::default(),
            )
        } else if ids.len() <= SPARSE_MAX {
            let fresh = ids.len() * 4;
            (
                Repr::Sparse(ids.into_boxed_slice()),
                AllocDelta {
                    fresh_bytes: fresh,
                    ..Default::default()
                },
            )
        } else {
            let (c, delta) = Chunked::from_ids(&ids);
            (Repr::Chunked(c), delta)
        }
    }

    /// Set union (allocation delta discarded).
    pub fn union(&self, other: &Self) -> Self {
        self.union_counted(other).0
    }

    /// `self ∪ other` plus the true allocation cost of building it.
    pub fn union_counted(&self, other: &Self) -> (Self, AllocDelta) {
        let lineage = self.lineage.child();
        match (&self.repr, &other.repr) {
            (Repr::Chunked(a), Repr::Chunked(b)) => {
                let (u, delta) = a.union(b);
                (
                    Self {
                        repr: Repr::Chunked(u),
                        lineage,
                    },
                    delta,
                )
            }
            (Repr::Chunked(c), _) => {
                let (u, delta) = c.with_ids(other.small_ids().unwrap());
                (
                    Self {
                        repr: Repr::Chunked(u),
                        lineage,
                    },
                    delta,
                )
            }
            (_, Repr::Chunked(c)) => {
                let (u, delta) = c.with_ids(self.small_ids().unwrap());
                (
                    Self {
                        repr: Repr::Chunked(u),
                        lineage,
                    },
                    delta,
                )
            }
            _ => {
                let (a, b) = (self.small_ids().unwrap(), other.small_ids().unwrap());
                let mut ids = Vec::with_capacity(a.len() + b.len());
                ids.extend_from_slice(a);
                ids.extend_from_slice(b);
                ids.sort_unstable();
                ids.dedup();
                let (repr, delta) = Self::small_from_sorted(ids);
                (Self { repr, lineage }, delta)
            }
        }
    }

    /// `self ⊆ other`.
    pub fn is_subset(&self, other: &Self) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Inline { .. } | Repr::Sparse(_), _) => self
                .small_ids()
                .unwrap()
                .iter()
                .all(|&id| other.contains(FutureId(id))),
            (Repr::Chunked(a), Repr::Chunked(b)) => a.subset_of(b),
            (Repr::Chunked(_), _) => {
                let n = self.words_len();
                (0..n).all(|wi| self.word_at(wi) & !other.word_at(wi) == 0)
            }
        }
    }

    /// Number of futures in the set (O(1): every tier caches it).
    #[inline]
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Sparse(ids) => ids.len(),
            Repr::Chunked(c) => c.len() as usize,
        }
    }

    /// True when no future is present.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resident heap bytes of this set's payload (shared chunks counted
    /// in full — a per-set view, distinct from the cumulative
    /// [`SetStats::bytes_allocated`]).
    pub fn heap_bytes(&self) -> usize {
        match &self.repr {
            Repr::Inline { .. } => 0,
            Repr::Sparse(ids) => ids.len() * 4,
            Repr::Chunked(c) => c.heap_bytes(),
        }
    }

    /// Iterate members (ascending). The chunked tier walks set bits with
    /// `trailing_zeros` — O(population), not O(words × 64).
    pub fn iter(&self) -> Iter<'_> {
        match self.small_ids() {
            Some(ids) => Iter(IterInner::Ids(ids.iter())),
            None => Iter(IterInner::Words {
                set: self,
                wi: 0,
                cur: self.word_at(0),
                nwords: self.words_len(),
            }),
        }
    }
}

/// Ascending iterator over a [`FutureSet`]'s members.
pub struct Iter<'a>(IterInner<'a>);

enum IterInner<'a> {
    Ids(std::slice::Iter<'a, u32>),
    Words {
        set: &'a FutureSet,
        wi: usize,
        cur: u64,
        nwords: usize,
    },
}

impl Iterator for Iter<'_> {
    type Item = FutureId;

    fn next(&mut self) -> Option<FutureId> {
        match &mut self.0 {
            IterInner::Ids(it) => it.next().map(|&id| FutureId(id)),
            IterInner::Words {
                set,
                wi,
                cur,
                nwords,
            } => loop {
                if *cur != 0 {
                    let b = cur.trailing_zeros();
                    *cur &= *cur - 1; // clear lowest set bit
                    return Some(FutureId((*wi * 64) as u32 + b));
                }
                *wi += 1;
                if *wi >= *nwords {
                    return None;
                }
                *cur = set.word_at(*wi);
            },
        }
    }
}

/// Allocation/merge counters, reported in the Fig. 5 memory table.
#[derive(Debug, Default)]
pub struct SetStats {
    /// Cumulative *fresh* payload bytes allocated for sets. Shared chunks
    /// and struct handles cost nothing here; the per-allocation constant
    /// overhead is tracked by `allocations`.
    pub bytes_allocated: AtomicU64,
    /// Number of sets allocated.
    pub allocations: AtomicU64,
    /// Number of true merges (both sides contributed members).
    pub merges: AtomicU64,
    /// Allocations that landed in the inline tier.
    pub tier_inline: AtomicU64,
    /// Allocations that landed in the sparse tier.
    pub tier_sparse: AtomicU64,
    /// Allocations that landed in the chunked tier.
    pub tier_chunked: AtomicU64,
    /// Chunks pointer-shared instead of copied during chunked rebuilds.
    pub chunks_shared: AtomicU64,
    /// Chunks copy-on-written during chunked rebuilds.
    pub chunks_copied: AtomicU64,
    /// Merges resolved in O(1) by the lineage descends-from fast exit.
    pub lineage_hits: AtomicU64,
}

/// A point-in-time copy of every [`SetStats`] counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SetStatsSnapshot {
    /// Sets allocated.
    pub allocations: u64,
    /// Cumulative fresh payload bytes.
    pub bytes: u64,
    /// True merges.
    pub merges: u64,
    /// Inline-tier allocations.
    pub tier_inline: u64,
    /// Sparse-tier allocations.
    pub tier_sparse: u64,
    /// Chunked-tier allocations.
    pub tier_chunked: u64,
    /// Chunks shared by pointer.
    pub chunks_shared: u64,
    /// Chunks copy-on-written.
    pub chunks_copied: u64,
    /// Lineage O(1) merge exits.
    pub lineage_hits: u64,
}

impl SetStats {
    /// Record one fresh set allocation with its measured cost.
    pub fn note_alloc(&self, set: &FutureSet, delta: AllocDelta) {
        self.allocations.fetch_add(1, Ordering::Relaxed);
        self.bytes_allocated
            .fetch_add(delta.fresh_bytes as u64, Ordering::Relaxed);
        let tier = match &set.repr {
            Repr::Inline { .. } => &self.tier_inline,
            Repr::Sparse(_) => &self.tier_sparse,
            Repr::Chunked(_) => &self.tier_chunked,
        };
        tier.fetch_add(1, Ordering::Relaxed);
        if delta.chunks_shared != 0 {
            self.chunks_shared
                .fetch_add(delta.chunks_shared, Ordering::Relaxed);
        }
        if delta.chunks_copied != 0 {
            self.chunks_copied
                .fetch_add(delta.chunks_copied, Ordering::Relaxed);
        }
    }

    /// Record an allocation measured outside the set layer (F-Order's
    /// per-node hash tables report through the same counters).
    pub fn note_alloc_bytes(&self, bytes: u64) {
        self.allocations.fetch_add(1, Ordering::Relaxed);
        self.bytes_allocated.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Legacy snapshot `(allocations, bytes, merges)`.
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.allocations.load(Ordering::Relaxed),
            self.bytes_allocated.load(Ordering::Relaxed),
            self.merges.load(Ordering::Relaxed),
        )
    }

    /// Every counter at once.
    pub fn full_snapshot(&self) -> SetStatsSnapshot {
        SetStatsSnapshot {
            allocations: self.allocations.load(Ordering::Relaxed),
            bytes: self.bytes_allocated.load(Ordering::Relaxed),
            merges: self.merges.load(Ordering::Relaxed),
            tier_inline: self.tier_inline.load(Ordering::Relaxed),
            tier_sparse: self.tier_sparse.load(Ordering::Relaxed),
            tier_chunked: self.tier_chunked.load(Ordering::Relaxed),
            chunks_shared: self.chunks_shared.load(Ordering::Relaxed),
            chunks_copied: self.chunks_copied.load(Ordering::Relaxed),
            lineage_hits: self.lineage_hits.load(Ordering::Relaxed),
        }
    }
}

/// Merge two shared sets with the pointer-sharing discipline of §3.4:
/// reuse a side when it already covers the other, allocate a union only
/// when both sides contain something the other lacks.
///
/// Pre-check ladder, cheapest first — none of it changes the verdict,
/// only how fast a *share* is recognized:
///
/// 1. pointer equality;
/// 2. lineage descends-from (O(1));
/// 3. cached-cardinality comparison to skip a doomed subset scan;
/// 4. the subset scans themselves.
pub fn merge(a: &Arc<FutureSet>, b: &Arc<FutureSet>, stats: &SetStats) -> Arc<FutureSet> {
    if Arc::ptr_eq(a, b) {
        return Arc::clone(a);
    }
    if b.lineage.descends_from(&a.lineage) {
        stats.lineage_hits.fetch_add(1, Ordering::Relaxed);
        return Arc::clone(b);
    }
    if a.lineage.descends_from(&b.lineage) {
        stats.lineage_hits.fetch_add(1, Ordering::Relaxed);
        return Arc::clone(a);
    }
    let (la, lb) = (a.len(), b.len());
    if lb <= la && b.is_subset(a) {
        return Arc::clone(a);
    }
    if la <= lb && a.is_subset(b) {
        return Arc::clone(b);
    }
    stats.merges.fetch_add(1, Ordering::Relaxed);
    let (u, delta) = a.union_counted(b);
    stats.note_alloc(&u, delta);
    Arc::new(u)
}

/// `set ∪ {f}` with sharing when `f` is already present.
pub fn with_future(set: &Arc<FutureSet>, f: FutureId, stats: &SetStats) -> Arc<FutureSet> {
    if set.contains(f) {
        return Arc::clone(set);
    }
    let (s, delta) = set.with_counted(f);
    stats.note_alloc(&s, delta);
    Arc::new(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(i: u32) -> FutureId {
        FutureId(i)
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
        assert_eq!(stats.snapshot().2, 0, "no true merge expected");
        let c = Arc::new(FutureSet::singleton(f(9)));
        let m2 = merge(&a, &c, &stats);
        assert!(m2.contains(f(1)) && m2.contains(f(9)));
        assert_eq!(stats.snapshot().2, 1);
    }

    #[test]
    fn with_future_shares_when_present() {
        let stats = SetStats::default();
        let a = Arc::new(FutureSet::singleton(f(4)));
        let same = with_future(&a, f(4), &stats);
        assert!(Arc::ptr_eq(&a, &same));
        let grown = with_future(&a, f(5), &stats);
        assert!(grown.contains(f(5)));
        assert_eq!(stats.snapshot().0, 1);
    }

    #[test]
    fn adaptive_promotes_through_tiers() {
        let stats = SetStats::default();
        let mut s = Arc::new(FutureSet::empty());
        for i in 0..200u32 {
            s = with_future(&s, f(i * 3), &stats); // strided: crosses words
        }
        assert_eq!(s.len(), 200);
        assert!((0..200).all(|i| s.contains(f(i * 3))));
        assert!(!s.contains(f(1)));
        let snap = stats.full_snapshot();
        assert!(snap.tier_inline >= 1, "first adds stay inline");
        assert!(snap.tier_sparse >= 1, "middle adds go sparse");
        assert!(snap.tier_chunked >= 1, "large sets go chunked");
        assert!(
            snap.chunks_shared > 0,
            "chunked growth must share untouched chunks"
        );
        assert_eq!(
            s.iter().map(|id| id.index() as u32).collect::<Vec<_>>(),
            (0..200).map(|i| i * 3).collect::<Vec<_>>()
        );
    }

    #[test]
    fn lineage_fast_exits_on_linear_chains() {
        let stats = SetStats::default();
        let base = Arc::new(FutureSet::empty());
        let grown = with_future(&base, f(1), &stats);
        let grown = with_future(&grown, f(2), &stats);
        // `grown` descends linearly from `base`: O(1) exit, shares `grown`.
        let m = merge(&base, &grown, &stats);
        assert!(Arc::ptr_eq(&m, &grown));
        assert!(stats.full_snapshot().lineage_hits >= 1);
        // Branch: two children of the same parent must NOT claim lineage
        // over each other, and the merge must be a true union.
        let left = with_future(&grown, f(10), &stats);
        let right = with_future(&grown, f(11), &stats);
        let u = merge(&left, &right, &stats);
        assert!(u.contains(f(10)) && u.contains(f(11)));
        assert_eq!(stats.full_snapshot().merges, 1);
    }

    #[test]
    fn growth_chain_payload_bytes_stay_bounded() {
        // Grow one set 4096 ids long. A flat bitmap copied per derivation
        // would allocate 8 * Σ⌈i/64⌉ ≈ 1.06 MB; structural sharing measures
        // 58 536 bytes (deterministic), so 64 KiB is the regression ceiling.
        let stats = SetStats::default();
        let mut s = Arc::new(FutureSet::empty());
        for id in 0..4096u32 {
            s = with_future(&s, f(id), &stats);
        }
        assert_eq!(s.len(), 4096);
        let bytes = stats.snapshot().1;
        assert!(bytes <= 64 << 10, "growth-chain payload bytes: {bytes}");
    }
}
