//! Two-level order-maintenance list with group-local (decentralized) inserts.
//!
//! Supports `insert_after(x)` and `insert_before(x)` (as runs:
//! [`OmList::insert_n_after`], [`OmList::insert_n_before`]) in amortized
//! O(1) and `order(a, b)` in O(1), with order queries running lock-free.
//! Inserts are *group-local*: each group carries its own spinlock, and an
//! insert that finds a label gap inside one group touches only that group.
//! The global mutex is acquired only on the geometrically-rare slow paths —
//! a group whose label gap is exhausted (relabel) or a group that outgrew
//! [`GROUP_MAX`] (split, which relabels a *range* of group labels when the
//! new group finds no gap).
//!
//! Layout: items live in *groups*. Each group has a 64-bit label; items carry
//! a 64-bit label that is meaningful only within their group. An item's key
//! is the pair `(group_label, item_label)`. When a gap between adjacent item
//! labels closes, the group is relabeled with even spacing; when a group
//! grows past [`GROUP_MAX`] it splits in two, the half that moves to the new
//! group is respaced and the half that stays keeps its labels unless one of
//! its gaps is nearly used up.
//!
//! ## Group labels: range relabel
//!
//! A split gives the new group the midpoint between its two neighbours'
//! labels. When there is no midpoint, the group labels around the split are
//! respaced by the range rule of Bender, Cole, Demaine, Farach-Colton and
//! Zito (*Two Simplified Algorithms for Maintaining Order in a List*, 2002):
//! walk outward from the splitting group's label `x` over the aligned label
//! ranges of size 2^i that contain it (`i` = 1, 2, …), counting the groups
//! inside, until the range's density `n / 2^i` is at most `T^-i`
//! ([`DENSITY_BASE`] `T` = 1.5), then spread exactly those `n` groups evenly
//! over that range. A range relabelled at level `i` leaves each half of
//! itself a factor `T` under that half's own threshold, so the half absorbs
//! a constant fraction of its capacity in new groups before it overflows
//! again: a split rewrites O(log #groups) group labels amortized, never all
//! of them. With one split per `GROUP_MAX / 2` = 32 inserts that is well
//! under one group label per insert at any list size a `u32` handle can
//! address, next to the ≈ one item label per insert the split itself
//! rewrites — the insert bound is met with a small constant
//! ([`OmStats::relabeled_slots`] measures it; `tests/bounds.rs` pins it).
//! `(2 / T)^64` ≈ 10^8 groups fit before even the whole label space counts
//! as dense; past that the whole space is respread as long as labels stay
//! distinct.
//!
//! ## Locking protocol
//!
//! Two lock levels, with a strict acquisition order **global → group**:
//!
//! * **Group spinlock** (`GroupSlot::lock`): protects the group's item
//!   chain (`first`/`last`/`count`, items' `next`/`prev`), the group's
//!   share of the statistics (`fast_inserts`, `locks`) and gives inserts
//!   exclusive use of the group's label gaps. The fast path takes exactly
//!   one of these and nothing else.
//! * **Global mutex** (`OmList::lock`): protects the group chain
//!   (`head_group`/`tail_group`, groups' `next`/`prev`), group labels, and —
//!   crucially — serializes every seqlock write section, so the seqlock
//!   keeps a single writer.
//!
//! A thread holding a group lock NEVER blocks on the global lock: when an
//! insert needs the slow path it *releases* its group lock, takes the
//! global lock, re-takes the group lock, and revalidates (the anchor may
//! have migrated to a different group during a concurrent split).
//! Splits additionally hold the *new* group's lock (created in the locked
//! state) until migration completes, so an inserter that observes the new
//! group index spins until the labels it would split are final.
//!
//! ## Locked instructions on the fast path
//!
//! A fast-path run insert of any length executes three locked
//! read-modify-writes and no more: the group lock's compare-exchange, and
//! the item arena's reservation `fetch_add` and publication
//! compare-exchange (`AppendArena::push_run`: once per run, not per item).
//! Everything else it writes — chain links, `count`, the two statistics —
//! is owned by the group lock it holds and is updated with a plain load
//! and store ([`bump`]); the unlock is a release store.
//!
//! ## Why queries stay correct
//!
//! Fast-path inserts never mutate an existing item's `(group, label)` key —
//! they only write fresh slots and re-link `next`/`prev` chains that
//! queries do not read. So a query racing a fast-path insert needs no
//! synchronization at all. The operations that *do* rewrite keys (relabel,
//! split migration, range relabel) all run under the global lock inside a
//! seqlock write section: the sequence number is bumped odd, keys are
//! rewritten, and it is bumped even again; a query that observed a torn
//! state sees the sequence change and retries. See DESIGN.md §5 for the
//! full soundness argument.

use std::cmp::Ordering as CmpOrdering;

use sfrd_runtime::sync::{fence, spin_loop, AtomicU32, AtomicU64, Mutex, Ordering};

use crate::arena::AppendArena;

/// Maximum items per group before it splits. A small power of two keeps
/// relabels cheap and gaps wide.
const GROUP_MAX: usize = 64;
/// Sentinel index for "no item / no group".
const NIL: u32 = u32::MAX;
/// `T` of the range-relabel rule: a label range of size 2^i is sparse
/// enough to respace when it holds at most `(2 / T)^i` groups. Between 1
/// (always take the whole space: the old respread) and 2 (never more than
/// one group per range: no capacity); 1.5 holds ≈ 10^8 groups in 64 bits.
const DENSITY_BASE: f64 = 1.5;
/// A split leaves the staying half's item labels alone unless its
/// smallest gap is below this: fewer than `GROUP_MAX / 2` halvings left,
/// i.e. the inserts that fit before the group's next split could use the
/// gap up and escalate. Respacing then rides in the split's write section.
const KEPT_GAP_FLOOR: u64 = 1 << (GROUP_MAX / 2);

/// Handle to an element of an [`OmList`]. Plain index — cheap to copy and
/// store in dag nodes. Valid only for the list that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OmHandle(pub(crate) u32);

impl OmHandle {
    /// Raw index of the handle within its list (stable for its lifetime).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The handle with raw index `index` — the inverse of
    /// [`index`](Self::index), for callers that store handles as integers.
    /// Only meaningful for an index the same list handed out; any other
    /// index panics (out of bounds) or names another item.
    #[inline]
    pub fn from_index(index: u32) -> Self {
        OmHandle(index)
    }
}

struct ItemSlot {
    /// Item label within its group. Mutated only inside seqlock write
    /// sections (relabel/split, under the global lock); read by queries.
    label: AtomicU64,
    /// Group index. Mutated only inside seqlock write sections (splits).
    group: AtomicU32,
    /// Next item in the group (NIL-terminated). Protected by the group lock.
    next: AtomicU32,
    /// Previous item in the group. Protected by the group lock.
    prev: AtomicU32,
    /// The caller's word for this item ([`OmList::aux`]): written by the
    /// run insert before the arena publishes the slot and never changed,
    /// so it needs no atomic. It fits the padding after the four fields
    /// above, so the slot stays 24 bytes.
    aux: u32,
}

struct GroupSlot {
    /// Group-local insert lock (0 = free, 1 = held). See module docs for
    /// the ordering protocol.
    lock: AtomicU32,
    /// Group label; total order of groups. Mutated under the global lock.
    label: AtomicU64,
    /// First item in this group. Protected by the group lock.
    first: AtomicU32,
    /// Last item in this group. Protected by the group lock.
    last: AtomicU32,
    /// Item count. Protected by the group lock.
    count: AtomicU32,
    /// Next group in list order. Protected by the global lock.
    next: AtomicU32,
    /// Previous group in list order. Protected by the global lock.
    prev: AtomicU32,
    /// Insert operations completed under this group's lock alone.
    /// Protected by the group lock; [`OmList::stats`] sums over groups.
    fast_inserts: AtomicU64,
    /// Acquisitions of this group's lock. Protected by the group lock.
    locks: AtomicU64,
}

/// `counter += n` for a counter owned by a lock the caller holds: a plain
/// load and store, where a `fetch_add` would be a locked instruction.
#[inline]
fn bump(counter: &AtomicU64, n: u64) {
    counter.store(counter.load(Ordering::Relaxed) + n, Ordering::Relaxed);
}

/// RAII guard for a group spinlock.
struct GroupGuard<'a> {
    lock: &'a AtomicU32,
}

impl Drop for GroupGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        self.lock.store(0, Ordering::Release);
    }
}

/// Where a run insert goes: right after an item or right before it. The
/// anchor item's group is the one the insert locks and joins.
#[derive(Clone, Copy)]
enum Anchor {
    After(u32),
    Before(u32),
}

impl Anchor {
    /// The anchor item.
    #[inline]
    fn item(self) -> u32 {
        match self {
            Anchor::After(x) | Anchor::Before(x) => x,
        }
    }
}

/// Group-chain bookkeeping owned by the global mutex.
struct Inner {
    head_group: u32,
    tail_group: u32,
}

/// A run of `len` chain-adjacent groups, starting at group `start`, to be
/// relabelled `lo, lo + stride, lo + 2 * stride, …` in chain order.
struct LabelRange {
    start: u32,
    len: u64,
    lo: u64,
    stride: u64,
}

/// Maintenance counters. All but `query_retries` change only under the
/// global lock, off the fast path, with a plain [`bump`];
/// `query_retries` is added to once per query that retried. The fast
/// path's own statistics live in the groups.
#[derive(Default)]
struct OmCounters {
    /// Insert operations that escalated to the global lock (relabel or
    /// split needed).
    global_escalations: AtomicU64,
    /// Seqlock retries observed by `order` queries.
    query_retries: AtomicU64,
    /// Group relabel passes (gap exhaustion).
    relabels: AtomicU64,
    /// Group splits.
    splits: AtomicU64,
    /// Group-label range relabels.
    respreads: AtomicU64,
    /// Keys rewritten inside seqlock write sections.
    relabeled_slots: AtomicU64,
}

/// Snapshot of an [`OmList`]'s contention and maintenance counters.
///
/// `fast_inserts + global_escalations` is the total number of insert
/// *operations* (an N-run insert counts once); the ratio of the two is the
/// decentralization win: under the old design every operation took the
/// global mutex, under this one only `global_escalations` do.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OmStats {
    /// Insert operations that completed on the group-local fast path.
    pub fast_inserts: u64,
    /// Group spinlock acquisitions.
    pub group_locks: u64,
    /// Insert operations that escalated to the global lock.
    pub global_escalations: u64,
    /// Seqlock retries observed by order queries.
    pub query_retries: u64,
    /// Item-label relabel passes.
    pub relabels: u64,
    /// Group splits.
    pub splits: u64,
    /// Group-label respread passes: a split found no label between two
    /// groups and respaced the groups of the smallest sparse label range
    /// around it.
    pub respreads: u64,
    /// Existing keys rewritten inside seqlock write sections: item labels
    /// (group relabels, splits — a migrated item counts once) plus group
    /// labels (respreads). Divided by the items inserted this is the
    /// maintenance work per insert, the quantity the amortized-O(1) bound
    /// is about; `relabels + splits + respreads` only counts passes.
    pub relabeled_slots: u64,
}

impl OmStats {
    /// Field-wise sum of two snapshots (e.g. English + Hebrew lists).
    pub fn merge(self, other: OmStats) -> OmStats {
        OmStats {
            fast_inserts: self.fast_inserts + other.fast_inserts,
            group_locks: self.group_locks + other.group_locks,
            global_escalations: self.global_escalations + other.global_escalations,
            query_retries: self.query_retries + other.query_retries,
            relabels: self.relabels + other.relabels,
            splits: self.splits + other.splits,
            respreads: self.respreads + other.respreads,
            relabeled_slots: self.relabeled_slots + other.relabeled_slots,
        }
    }
}

/// Order-maintenance list: total order with O(1) amortized `insert_after`
/// (group-local in the common case) and O(1) lock-free `order` queries.
pub struct OmList {
    items: AppendArena<ItemSlot>,
    groups: AppendArena<GroupSlot>,
    /// Seqlock protecting label consistency for queries. Write sections
    /// run only under the global lock (single writer).
    seq: AtomicU64,
    lock: Mutex<Inner>,
    counters: OmCounters,
    /// Width of the group-label space in bits; 64 outside the fixture.
    #[cfg(any(test, sfrd_model))]
    group_label_bits: u32,
}

impl OmList {
    /// Create a list containing a single base element, returned as a handle.
    pub fn new() -> (Self, OmHandle) {
        Self::with_label_space(64)
    }

    /// Test fixture: a list whose group labels live in `bits` bits, so a
    /// handful of splits at one spot — not 64 — run out of midpoints and
    /// reach the range relabel. Nothing else differs.
    #[cfg(any(test, sfrd_model))]
    #[doc(hidden)]
    pub fn with_group_label_bits(bits: u32) -> (Self, OmHandle) {
        assert!((2..=64).contains(&bits));
        Self::with_label_space(bits)
    }

    /// A list whose group labels are `bits` bits wide.
    fn with_label_space(bits: u32) -> (Self, OmHandle) {
        let list = Self {
            items: AppendArena::new(),
            groups: AppendArena::new(),
            seq: AtomicU64::new(0),
            lock: Mutex::new(Inner {
                head_group: 0,
                tail_group: 0,
            }),
            counters: OmCounters::default(),
            #[cfg(any(test, sfrd_model))]
            group_label_bits: bits,
        };
        list.groups.push(GroupSlot {
            lock: AtomicU32::new(0),
            label: AtomicU64::new((u64::MAX >> (64 - bits)) / 2),
            first: AtomicU32::new(0),
            last: AtomicU32::new(0),
            count: AtomicU32::new(1),
            next: AtomicU32::new(NIL),
            prev: AtomicU32::new(NIL),
            fast_inserts: AtomicU64::new(0),
            locks: AtomicU64::new(0),
        });
        list.items.push(ItemSlot {
            label: AtomicU64::new(u64::MAX / 2),
            group: AtomicU32::new(0),
            next: AtomicU32::new(NIL),
            prev: AtomicU32::new(NIL),
            aux: 0,
        });
        (list, OmHandle(0))
    }

    /// Width of the group-label space in bits.
    #[inline]
    fn group_label_bits(&self) -> u32 {
        #[cfg(any(test, sfrd_model))]
        return self.group_label_bits;
        #[cfg(not(any(test, sfrd_model)))]
        64
    }

    /// Number of elements in the list.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when the list holds only elements inserted by [`OmList::new`].
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Total relabel passes performed — item relabels, splits, and
    /// group-label respreads (test/diagnostic aid; a pass of any size
    /// counts once — [`OmStats::relabeled_slots`] is the work measure).
    pub fn relabel_count(&self) -> u64 {
        self.counters.relabels.load(Ordering::Relaxed)
            + self.counters.splits.load(Ordering::Relaxed)
            + self.counters.respreads.load(Ordering::Relaxed)
    }

    /// Snapshot the contention counters. The two fast-path counters are
    /// kept per group (each owned by its group's lock) and summed here;
    /// the sum is exact once inserters are quiescent.
    pub fn stats(&self) -> OmStats {
        let (mut fast_inserts, mut group_locks) = (0, 0);
        for g in 0..self.groups.len() {
            let group = self.groups.get(g);
            fast_inserts += group.fast_inserts.load(Ordering::Relaxed);
            group_locks += group.locks.load(Ordering::Relaxed);
        }
        OmStats {
            fast_inserts,
            group_locks,
            global_escalations: self.counters.global_escalations.load(Ordering::Relaxed),
            query_retries: self.counters.query_retries.load(Ordering::Relaxed),
            relabels: self.counters.relabels.load(Ordering::Relaxed),
            splits: self.counters.splits.load(Ordering::Relaxed),
            respreads: self.counters.respreads.load(Ordering::Relaxed),
            relabeled_slots: self.counters.relabeled_slots.load(Ordering::Relaxed),
        }
    }

    /// Approximate heap bytes used (for the Fig. 5 memory report).
    pub fn heap_bytes(&self) -> usize {
        self.items.heap_bytes() + self.groups.heap_bytes() + std::mem::size_of::<Self>()
    }

    /// Insert a new element immediately after `after`, returning its handle.
    /// Its [`aux`](Self::aux) word is 0.
    pub fn insert_after(&self, after: OmHandle) -> OmHandle {
        let [h] = self.insert_n_after(after, [0]);
        h
    }

    /// Insert a run of `N` elements right after `after` in one combined
    /// group operation: one group-lock acquisition allocates all `N`
    /// labels by even gap-splitting and one arena append holds all `N`
    /// slots. Returns the handles in list order, i.e.
    /// `after < r[0] < r[1] < … < r[N-1]`. Element `r[k]` carries
    /// `aux[k]` as its [`aux`](Self::aux) word, written before the run is
    /// published.
    ///
    /// `SpOrder::fork` uses this to pay one lock acquisition for the 1–3
    /// positions it adds per list instead of one per position.
    pub fn insert_n_after<const N: usize>(&self, after: OmHandle, aux: [u32; N]) -> [OmHandle; N] {
        self.insert_run(Anchor::After(after.0), aux)
    }

    /// Insert a run of `N` elements right before `before`, exactly as
    /// [`insert_n_after`](Self::insert_n_after) inserts after its anchor:
    /// `r[0] < … < r[N-1] < before`, with nothing between `r[N-1]` and
    /// `before`. The run takes `before`'s group; at the front of the group
    /// it becomes the group's new head, below every existing label there.
    ///
    /// An insert after `before`'s list predecessor that races this one
    /// lands before the run either way: whichever runs second finds the
    /// other's items between its anchor and the far neighbour.
    pub fn insert_n_before<const N: usize>(
        &self,
        before: OmHandle,
        aux: [u32; N],
    ) -> [OmHandle; N] {
        self.insert_run(Anchor::Before(before.0), aux)
    }

    /// The run insert behind both anchors: lock the anchor's group, take
    /// the gap next to the anchor, escalate when the gap is exhausted.
    fn insert_run<const N: usize>(&self, at: Anchor, aux: [u32; N]) -> [OmHandle; N] {
        assert!(N >= 1 && N <= 8, "insert run length must be in 1..=8");
        let anchor_slot = self.items.get(at.item() as usize);
        loop {
            // Fast path: lock only the anchor's group.
            let gidx = anchor_slot.group.load(Ordering::Acquire);
            let group = self.groups.get(gidx as usize);
            let guard = self.lock_group(group);
            if anchor_slot.group.load(Ordering::Relaxed) != gidx {
                // The anchor migrated during a concurrent split; retry.
                drop(guard);
                continue;
            }
            if let Some(handles) = self.try_insert_run(gidx, group, at, aux) {
                bump(&group.fast_inserts, 1);
                let oversized = group.count.load(Ordering::Relaxed) as usize > GROUP_MAX;
                drop(guard);
                if oversized {
                    // Deferred maintenance: the insert itself is done; the
                    // split happens under the global lock without holding
                    // our fast-path position hostage.
                    self.split_oversized(gidx);
                }
                return handles;
            }
            drop(guard);
            // Slow path: the group's label gap is exhausted. Escalate to
            // the global lock (never acquired while holding a group lock).
            return self.insert_run_escalated(at, aux);
        }
    }

    /// Acquire `group`'s spinlock.
    fn lock_group<'a>(&self, group: &'a GroupSlot) -> GroupGuard<'a> {
        let lock = &group.lock;
        let mut spins = 0u32;
        while lock
            .compare_exchange_weak(0, 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            spins += 1;
            if spins > 64 {
                // Mandatory on oversubscribed cores: the holder may be
                // descheduled; spinning without yielding would livelock.
                std::thread::yield_now();
            } else {
                spin_loop();
            }
        }
        bump(&group.locks, 1);
        GroupGuard { lock }
    }

    /// Try to insert an `N`-run next to the anchor inside group `gidx`
    /// using the label gap there. Returns `None` when the gap is too small.
    ///
    /// Caller holds `gidx`'s group lock and has verified the anchor is in
    /// `gidx`, so the anchor's group-local neighbours — `pred` and `succ`
    /// of the run, either of which may be `NIL` at an end of the group —
    /// are stable. An end of the group bounds the gap at label 0 or
    /// `u64::MAX`, neither of which any item holds. Writes only fresh item
    /// slots and chain pointers — no existing `(group, label)` key is
    /// mutated, so no seqlock section is needed and concurrent queries
    /// proceed untouched.
    fn try_insert_run<const N: usize>(
        &self,
        gidx: u32,
        group: &GroupSlot,
        at: Anchor,
        aux: [u32; N],
    ) -> Option<[OmHandle; N]> {
        let slot = |i: u32| (i != NIL).then(|| self.items.get(i as usize));
        let (pred, succ) = match at {
            Anchor::After(x) => (x, self.items.get(x as usize).next.load(Ordering::Relaxed)),
            Anchor::Before(x) => (self.items.get(x as usize).prev.load(Ordering::Relaxed), x),
        };
        let (pred_slot, succ_slot) = (slot(pred), slot(succ));
        let pred_label = pred_slot.map_or(0, |s| s.label.load(Ordering::Relaxed));
        let succ_label = succ_slot.map_or(u64::MAX, |s| s.label.load(Ordering::Relaxed));
        let gap = succ_label - pred_label;
        if gap < N as u64 + 1 {
            return None;
        }
        let step = gap / (N as u64 + 1);
        // The run's slots are consecutive, so each can name its chain
        // neighbours before any of them exists.
        let first = self.items.push_run::<N>(|first| {
            let first = first as u32;
            std::array::from_fn(|k| ItemSlot {
                label: AtomicU64::new(pred_label + step * (k as u64 + 1)),
                group: AtomicU32::new(gidx),
                next: AtomicU32::new(if k + 1 == N {
                    succ
                } else {
                    first.wrapping_add(k as u32 + 1)
                }),
                prev: AtomicU32::new(if k == 0 {
                    pred
                } else {
                    first.wrapping_add(k as u32 - 1)
                }),
                aux: aux[k],
            })
        });
        // Checked after the append (a panic inside it would wedge the
        // arena) and before the run is linked into the chain.
        assert!(
            first + N < NIL as usize,
            "order-maintenance list is out of u32 handles"
        );
        let first = first as u32;
        let last = first + N as u32 - 1;
        match pred_slot {
            Some(p) => p.next.store(first, Ordering::Relaxed),
            None => group.first.store(first, Ordering::Relaxed),
        }
        match succ_slot {
            Some(s) => s.prev.store(last, Ordering::Relaxed),
            None => group.last.store(last, Ordering::Relaxed),
        }
        let count = group.count.load(Ordering::Relaxed);
        group.count.store(count + N as u32, Ordering::Relaxed);
        Some(std::array::from_fn(|k| OmHandle(first + k as u32)))
    }

    /// Slow-path insert under the global lock: relabel the group if its
    /// gap is exhausted, insert, and split if oversized.
    fn insert_run_escalated<const N: usize>(&self, at: Anchor, aux: [u32; N]) -> [OmHandle; N] {
        let mut inner = self.lock.lock();
        bump(&self.counters.global_escalations, 1);
        // Under the global lock no split can run, so the anchor's group
        // index is stable once read.
        let gidx = self
            .items
            .get(at.item() as usize)
            .group
            .load(Ordering::Acquire);
        let group = self.groups.get(gidx as usize);
        let guard = self.lock_group(group);
        let handles = match self.try_insert_run(gidx, group, at, aux) {
            // Another thread relabeled between our fast-path failure and
            // the escalation — the gap is back.
            Some(h) => h,
            None => {
                self.relabel_group(group);
                self.try_insert_run(gidx, group, at, aux)
                    .expect("freshly relabeled group must have label gaps")
            }
        };
        if group.count.load(Ordering::Relaxed) as usize > GROUP_MAX {
            self.split_group(&mut inner, gidx);
        }
        drop(guard);
        handles
    }

    /// Split `gidx` if it is still oversized. Called lock-free from the
    /// fast path after a deferred-maintenance insert.
    fn split_oversized(&self, gidx: u32) {
        let mut inner = self.lock.lock();
        bump(&self.counters.global_escalations, 1);
        let group = self.groups.get(gidx as usize);
        let guard = self.lock_group(group);
        // Re-check under locks: a concurrent escalation may have split it.
        if group.count.load(Ordering::Relaxed) as usize > GROUP_MAX {
            self.split_group(&mut inner, gidx);
        }
        drop(guard);
    }

    /// Label the chain of `n` items starting at `first` with `n` evenly
    /// spaced labels, moving each to group `to` if given. Only inside a
    /// seqlock write section, with the chain's group lock held.
    fn respace_items(&self, first: u32, n: u64, to: Option<u32>) {
        let stride = u64::MAX / (n + 1);
        let mut cur = first;
        let mut label = stride;
        while cur != NIL {
            let slot = self.items.get(cur as usize);
            if let Some(gidx) = to {
                slot.group.store(gidx, Ordering::Relaxed);
            }
            slot.label.store(label, Ordering::Relaxed);
            label += stride;
            cur = slot.next.load(Ordering::Relaxed);
        }
    }

    /// Evenly respace the item labels of `group`. Seqlock write section;
    /// caller holds the global lock AND `group`'s lock.
    fn relabel_group(&self, group: &GroupSlot) {
        let count = group.count.load(Ordering::Relaxed) as u64;
        debug_assert!(count > 0);
        self.seq_write(|| self.respace_items(group.first.load(Ordering::Relaxed), count, None));
        bump(&self.counters.relabels, 1);
        bump(&self.counters.relabeled_slots, count);
    }

    /// Split group `gidx` in half, moving the tail half to a fresh group
    /// inserted right after it. One seqlock write section holds every key
    /// the split rewrites: the moved half (new group, fresh labels), the
    /// staying half if a gap of its own is nearly used up, and — when the
    /// new group finds no label between its neighbours — the group labels
    /// of the smallest sparse range around it.
    ///
    /// Caller holds the global lock AND `gidx`'s group lock. The new group
    /// is created already *locked* so that a fast-path inserter observing
    /// the new group index (via a migrated item's `group` field) blocks
    /// until the migration's labels are final.
    fn split_group(&self, inner: &mut Inner, gidx: u32) {
        let group = self.groups.get(gidx as usize);
        let count = group.count.load(Ordering::Relaxed) as usize;
        let keep = count / 2;
        // Find the first item of the tail half, and on the way the
        // smallest gap the staying half is left with.
        let mut cut = group.first.load(Ordering::Relaxed);
        let mut kept_gap = u64::MAX;
        let mut below = None;
        for _ in 0..keep {
            let slot = self.items.get(cut as usize);
            let label = slot.label.load(Ordering::Relaxed);
            if let Some(below) = below {
                kept_gap = kept_gap.min(label - below);
            }
            below = Some(label);
            cut = slot.next.load(Ordering::Relaxed);
        }
        let respace_kept = kept_gap < KEPT_GAP_FLOOR;
        let next_gidx = group.next.load(Ordering::Relaxed);
        // With no midpoint the new group's label comes from the range
        // relabel below; until then nothing points at the group.
        let midpoint = self.group_label_gap(group, next_gidx);
        let range = midpoint.is_none().then(|| self.sparse_range(gidx));
        let new_gidx = self.groups.push(GroupSlot {
            lock: AtomicU32::new(1), // born held; released after migration
            label: AtomicU64::new(midpoint.unwrap_or(0)),
            first: AtomicU32::new(cut),
            last: AtomicU32::new(group.last.load(Ordering::Relaxed)),
            count: AtomicU32::new((count - keep) as u32),
            next: AtomicU32::new(next_gidx),
            prev: AtomicU32::new(gidx),
            fast_inserts: AtomicU64::new(0),
            locks: AtomicU64::new(0),
        }) as u32;
        let new_group = self.groups.get(new_gidx as usize);
        // Relink the group list.
        if next_gidx == NIL {
            inner.tail_group = new_gidx;
        } else {
            self.groups
                .get(next_gidx as usize)
                .prev
                .store(new_gidx, Ordering::Relaxed);
        }
        group.next.store(new_gidx, Ordering::Relaxed);
        // Detach the tail half from the old group.
        let cut_slot = self.items.get(cut as usize);
        let cut_prev = cut_slot.prev.load(Ordering::Relaxed);
        cut_slot.prev.store(NIL, Ordering::Relaxed);
        self.items
            .get(cut_prev as usize)
            .next
            .store(NIL, Ordering::Relaxed);
        group.last.store(cut_prev, Ordering::Relaxed);
        group.count.store(keep as u32, Ordering::Relaxed);
        // Key rewrites → seqlock write section (global lock held).
        self.seq_write(|| {
            if let Some(range) = &range {
                // The new group is in the chain now, right after `gidx`,
                // and takes the label at its place in the run.
                let mut g = range.start;
                for k in 0..range.len {
                    let slot = self.groups.get(g as usize);
                    slot.label
                        .store(range.lo + k * range.stride, Ordering::Relaxed);
                    g = slot.next.load(Ordering::Relaxed);
                }
            }
            if respace_kept {
                self.respace_items(group.first.load(Ordering::Relaxed), keep as u64, None);
            }
            self.respace_items(cut, (count - keep) as u64, Some(new_gidx));
        });
        // Migration complete: open the new group for business.
        new_group.lock.store(0, Ordering::Release);
        bump(&self.counters.splits, 1);
        if range.is_some() {
            bump(&self.counters.respreads, 1);
        }
        // The new group's own label is fresh, not rewritten.
        let rewritten = (count - keep) as u64
            + if respace_kept { keep as u64 } else { 0 }
            + range.map_or(0, |r| r.len - 1);
        bump(&self.counters.relabeled_slots, rewritten);
    }

    /// Largest group label.
    #[inline]
    fn group_label_max(&self) -> u64 {
        u64::MAX >> (64 - self.group_label_bits())
    }

    /// A label strictly between `group` and its successor, if a gap exists.
    fn group_label_gap(&self, group: &GroupSlot, next_gidx: u32) -> Option<u64> {
        let lo = group.label.load(Ordering::Relaxed);
        let hi = if next_gidx == NIL {
            self.group_label_max()
        } else {
            self.groups
                .get(next_gidx as usize)
                .label
                .load(Ordering::Relaxed)
        };
        if hi - lo >= 2 {
            Some(lo + (hi - lo) / 2)
        } else {
            None
        }
    }

    /// The range-relabel rule (module docs): the smallest aligned label
    /// range of size 2^i around group `gidx`'s label that is sparse enough
    /// — at most `(2 / T)^i` groups, counting the one about to be inserted
    /// after `gidx` — together with the even spacing for its groups. The
    /// walk only ever extends outward, so it costs O(groups in the range
    /// returned). Caller holds the global lock.
    fn sparse_range(&self, gidx: u32) -> LabelRange {
        let label_of = |g: u32| self.groups.get(g as usize).label.load(Ordering::Relaxed);
        let x = label_of(gidx);
        let bits = self.group_label_bits();
        // `left` is the leftmost chain group inside the current range,
        // `right` the rightmost; `n` counts them plus the new group.
        let (mut left, mut right, mut n) = (gidx, gidx, 2u64);
        for i in 1..=bits {
            // [lo, hi] is the aligned range of 2^i labels containing x.
            let low_bits = u64::MAX >> (64 - i);
            let (lo, hi) = (x & !low_bits, x | low_bits);
            loop {
                let prev = self.groups.get(left as usize).prev.load(Ordering::Relaxed);
                if prev == NIL || label_of(prev) < lo {
                    break;
                }
                left = prev;
                n += 1;
            }
            loop {
                let next = self.groups.get(right as usize).next.load(Ordering::Relaxed);
                if next == NIL || label_of(next) > hi {
                    break;
                }
                right = next;
                n += 1;
            }
            // Past the last level there is no wider range to move to: the
            // whole space is respread as long as labels stay distinct.
            if n as f64 <= (2.0 / DENSITY_BASE).powi(i as i32) || i == bits {
                let stride = ((1u128 << i) / n as u128) as u64;
                assert!(stride >= 1, "group label space exhausted");
                return LabelRange {
                    start: left,
                    len: n,
                    lo,
                    stride,
                };
            }
        }
        unreachable!("the last level always returns");
    }

    /// Run `f` inside a seqlock write section. Callers MUST hold the
    /// global lock — it is what makes the seqlock single-writer.
    fn seq_write(&self, f: impl FnOnce()) {
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s.wrapping_add(1), Ordering::Release);
        fence(Ordering::SeqCst);
        f();
        fence(Ordering::SeqCst);
        self.seq.store(s.wrapping_add(2), Ordering::Release);
    }

    /// Read an item's sort key `(group_label, item_label)`.
    #[inline]
    fn key(&self, h: OmHandle) -> (u64, u64) {
        let slot = self.items.get(h.0 as usize);
        let gidx = slot.group.load(Ordering::Acquire);
        let glabel = self.groups.get(gidx as usize).label.load(Ordering::Acquire);
        let label = slot.label.load(Ordering::Acquire);
        (glabel, label)
    }

    /// Total-order comparison of two handles. Lock-free; retries across
    /// concurrent relabels via the seqlock.
    #[inline]
    pub fn order(&self, a: OmHandle, b: OmHandle) -> CmpOrdering {
        if a == b {
            return CmpOrdering::Equal;
        }
        // Retries are tallied here and added once on the way out: a
        // `fetch_add` per spin would hammer the counters' cache line while
        // the writer being waited for is working next to it.
        let mut retries = 0u64;
        let order = loop {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 & 1 == 1 {
                retries += 1;
                if retries > 64 {
                    // The writer may be descheduled (more queriers than
                    // cores): give it the timeslice instead of burning it.
                    std::thread::yield_now();
                } else {
                    spin_loop();
                }
                continue;
            }
            let ka = self.key(a);
            let kb = self.key(b);
            // Seqlock reader: the key loads above are `Acquire`, so no
            // store they observed can be newer than what the re-load of
            // `seq` below observes; the acquire fence keeps that re-load
            // after them. Pairs with the writer's odd store + fence before
            // its key stores and its fence + `Release` even store after.
            fence(Ordering::Acquire);
            if self.seq.load(Ordering::Relaxed) == s1 {
                debug_assert_ne!(ka, kb, "distinct items must have distinct keys");
                break ka.cmp(&kb);
            }
            retries += 1;
        };
        if retries != 0 {
            self.counters
                .query_retries
                .fetch_add(retries, Ordering::Relaxed);
        }
        order
    }

    /// True iff `a` is strictly before `b` in the list order.
    #[inline]
    pub fn precedes(&self, a: OmHandle, b: OmHandle) -> bool {
        self.order(a, b) == CmpOrdering::Less
    }

    /// The word `h` was inserted with ([`insert_n_after`](Self::insert_n_after)
    /// or [`insert_n_before`](Self::insert_n_before); 0 for the base element
    /// and [`insert_after`](Self::insert_after)).
    /// Lock-free and never retried: no relabel touches it.
    #[inline]
    pub fn aux(&self, h: OmHandle) -> u32 {
        self.items.get(h.0 as usize).aux
    }

    /// Collect all handles in list order (test/diagnostic aid; O(n)).
    /// Takes the global lock (freezing the group chain) and each group's
    /// lock while walking it (freezing that item chain).
    pub fn iter_order(&self) -> Vec<OmHandle> {
        let inner = self.lock.lock();
        let mut out = Vec::with_capacity(self.items.len());
        let mut g = inner.head_group;
        while g != NIL {
            let group = self.groups.get(g as usize);
            let guard = self.lock_group(group);
            let mut cur = group.first.load(Ordering::Relaxed);
            while cur != NIL {
                out.push(OmHandle(cur));
                cur = self.items.get(cur as usize).next.load(Ordering::Relaxed);
            }
            drop(guard);
            g = group.next.load(Ordering::Relaxed);
        }
        out
    }

    /// Panic unless the structure is well formed (test/diagnostic aid;
    /// O(n), same locking as [`OmList::iter_order`]): group labels strictly
    /// increase along the group chain and fit the label space, item labels
    /// strictly increase within each group, every group's `count` is its
    /// chain's length and no group is empty, every item's `group` is the
    /// group whose chain holds it, back links
    /// mirror forward links, and the chains hold every item exactly once.
    pub fn check_invariants(&self) {
        let inner = self.lock.lock();
        let mut items_seen = 0usize;
        let mut g = inner.head_group;
        let mut prev_group: Option<(u32, u64)> = None;
        while g != NIL {
            let group = self.groups.get(g as usize);
            let guard = self.lock_group(group);
            let glabel = group.label.load(Ordering::Relaxed);
            assert!(
                glabel <= self.group_label_max(),
                "group {g} label out of space"
            );
            let back = group.prev.load(Ordering::Relaxed);
            match prev_group {
                Some((pg, plabel)) => {
                    assert!(plabel < glabel, "group labels not increasing at group {g}");
                    assert_eq!(back, pg, "group {g} back link");
                }
                None => assert_eq!(back, NIL, "head group {g} back link"),
            }
            let mut len = 0u32;
            let mut cur = group.first.load(Ordering::Relaxed);
            let mut prev_item: Option<(u32, u64)> = None;
            while cur != NIL {
                let slot = self.items.get(cur as usize);
                let label = slot.label.load(Ordering::Relaxed);
                assert_eq!(slot.group.load(Ordering::Relaxed), g, "item {cur} group");
                let back = slot.prev.load(Ordering::Relaxed);
                match prev_item {
                    Some((pi, plabel)) => {
                        assert!(plabel < label, "item labels not increasing at item {cur}");
                        assert_eq!(back, pi, "item {cur} back link");
                    }
                    None => assert_eq!(back, NIL, "first item {cur} back link"),
                }
                prev_item = Some((cur, label));
                len += 1;
                cur = slot.next.load(Ordering::Relaxed);
            }
            assert_eq!(group.count.load(Ordering::Relaxed), len, "group {g} count");
            assert_eq!(
                group.last.load(Ordering::Relaxed),
                prev_item.expect("group is not empty").0,
                "group {g} last"
            );
            items_seen += len as usize;
            drop(guard);
            prev_group = Some((g, glabel));
            g = group.next.load(Ordering::Relaxed);
        }
        assert_eq!(
            inner.tail_group,
            prev_group.expect("list is not empty").0,
            "tail group"
        );
        assert_eq!(items_seen, self.items.len(), "items on chains");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    /// Reference model: Vec of handles in true order.
    fn check_against_model(model: &[OmHandle], list: &OmList) {
        list.check_invariants();
        assert_eq!(list.iter_order(), model);
        // Spot-check pairwise order on a sample.
        let n = model.len();
        for i in (0..n).step_by((n / 50).max(1)) {
            for j in (0..n).step_by((n / 50).max(1)) {
                let expect = i.cmp(&j);
                assert_eq!(list.order(model[i], model[j]), expect, "i={i} j={j}");
            }
        }
    }

    #[test]
    fn base_element_only() {
        let (list, base) = OmList::new();
        assert_eq!(list.len(), 1);
        assert_eq!(list.order(base, base), CmpOrdering::Equal);
    }

    #[test]
    fn sequential_appends_stay_ordered() {
        let (list, base) = OmList::new();
        let mut model = vec![base];
        let mut last = base;
        for _ in 0..2000 {
            last = list.insert_after(last);
            model.push(last);
        }
        check_against_model(&model, &list);
    }

    #[test]
    fn repeated_insert_after_head_forces_relabels() {
        let (list, base) = OmList::new();
        let mut model = vec![base];
        for _ in 0..2000 {
            let h = list.insert_after(base);
            model.insert(1, h);
        }
        check_against_model(&model, &list);
        assert!(
            list.relabel_count() > 0,
            "head insertion must trigger relabels"
        );
    }

    /// The caller's word rides in the item slot's padding: the slot stays
    /// 24 bytes, as it was before it carried one.
    #[test]
    fn item_slot_carries_aux_in_its_padding() {
        assert_eq!(std::mem::size_of::<ItemSlot>(), 24);
    }

    /// Each run element keeps its own aux word, through the relabels and
    /// splits a hot spot forces.
    #[test]
    fn aux_words_survive_relabels() {
        let (list, base) = OmList::new();
        let mut runs = Vec::new();
        for i in 0..2_000u32 {
            runs.push((list.insert_n_after(base, [3 * i, 3 * i + 1, 3 * i + 2]), i));
        }
        assert!(list.relabel_count() > 0);
        assert_eq!(list.aux(base), 0);
        for (run, i) in runs {
            assert_eq!(run.map(|h| list.aux(h)), [3 * i, 3 * i + 1, 3 * i + 2]);
            assert_eq!(OmHandle::from_index(run[1].index() as u32), run[1]);
        }
        assert_eq!(list.aux(list.insert_after(base)), 0);
    }

    #[test]
    fn insert_n_after_orders_run() {
        let (list, base) = OmList::new();
        let tail = list.insert_after(base);
        let run = list.insert_n_after(base, [0; 4]);
        let mut prev = base;
        for h in run {
            assert!(list.precedes(prev, h));
            prev = h;
        }
        assert!(list.precedes(prev, tail));
        assert_eq!(
            list.iter_order(),
            vec![base, run[0], run[1], run[2], run[3], tail]
        );
    }

    #[test]
    fn random_positions_match_model() {
        let mut rng = StdRng::seed_from_u64(0x5F0D);
        let (list, base) = OmList::new();
        let mut model = vec![base];
        for _ in 0..5000 {
            let pos = rng.random_range(0..model.len());
            let h = list.insert_after(model[pos]);
            model.insert(pos + 1, h);
        }
        check_against_model(&model, &list);
    }

    #[test]
    fn random_runs_match_model() {
        let mut rng = StdRng::seed_from_u64(0xBEE5);
        let (list, base) = OmList::new();
        let mut model = vec![base];
        for _ in 0..2000 {
            let pos = rng.random_range(0..model.len());
            match rng.random_range(0..3) {
                0 => {
                    let run = list.insert_n_after(model[pos], [0; 2]);
                    model.splice(pos + 1..pos + 1, run);
                }
                1 => {
                    let run = list.insert_n_after(model[pos], [0; 3]);
                    model.splice(pos + 1..pos + 1, run);
                }
                _ => {
                    let run = list.insert_n_after(model[pos], [0; 4]);
                    model.splice(pos + 1..pos + 1, run);
                }
            }
        }
        check_against_model(&model, &list);
    }

    /// Runs before and after random anchors against the `Vec` model. Every
    /// tenth insert goes before the list's head, and many others land at
    /// the front of a group, where the run's predecessor is `NIL`.
    #[test]
    fn random_before_and_after_runs_match_model() {
        let mut rng = StdRng::seed_from_u64(0xB4F0);
        let (list, base) = OmList::new();
        let mut model = vec![base];
        let mut group_fronts = 0;
        for i in 0..3000 {
            let head = i % 10 == 0;
            let pos = if head {
                0
            } else {
                rng.random_range(0..model.len())
            };
            let at = model[pos];
            let len = rng.random_range(1..=3);
            if head || rng.random_bool(0.5) {
                if list.items.get(at.index()).prev.load(Ordering::Relaxed) == NIL {
                    group_fronts += 1;
                }
                let run = match len {
                    1 => list.insert_n_before(at, [0; 1]).to_vec(),
                    2 => list.insert_n_before(at, [0; 2]).to_vec(),
                    _ => list.insert_n_before(at, [0; 3]).to_vec(),
                };
                model.splice(pos..pos, run);
            } else {
                let run = match len {
                    1 => list.insert_n_after(at, [0; 1]).to_vec(),
                    2 => list.insert_n_after(at, [0; 2]).to_vec(),
                    _ => list.insert_n_after(at, [0; 3]).to_vec(),
                };
                model.splice(pos + 1..pos + 1, run);
            }
        }
        check_against_model(&model, &list);
        let stats = list.stats();
        assert!(group_fronts >= 300, "{group_fronts} group-front inserts");
        assert!(stats.splits > 10, "{stats:?}");
    }

    /// A fixed successor with a moving predecessor — a spawn loop's child
    /// positions going in before one continuation — halves one gap per
    /// insert, like the head hot spot: the splits keep it open, and the
    /// list stays in order.
    #[test]
    fn inserts_before_one_item_stay_ordered() {
        let (list, base) = OmList::new();
        let k = list.insert_after(base);
        let mut model = vec![base];
        for _ in 0..10_000 {
            model.push(list.insert_n_before(k, [0])[0]);
        }
        model.push(k);
        check_against_model(&model, &list);
        let s = list.stats();
        assert!(s.relabels <= 2, "{s:?}");
        assert!(s.global_escalations * 5 <= s.fast_inserts, "{s:?}");
    }

    #[test]
    fn appends_stay_on_fast_path() {
        let (list, base) = OmList::new();
        let mut last = base;
        for _ in 0..10_000 {
            last = list.insert_after(last);
        }
        let stats = list.stats();
        // Appends almost always find a gap (a handful of early inserts can
        // exhaust a group's gap by repeated halving before the count-based
        // split fires); escalations otherwise come only from deferred
        // splits (one per ~GROUP_MAX/2 inserts).
        assert!(stats.fast_inserts >= 9_990, "{stats:?}");
        assert!(
            stats.global_escalations * 5 <= stats.fast_inserts,
            "append workload should be dominated by fast-path inserts: {stats:?}"
        );
        assert!(stats.splits > 0, "10k appends must split groups");
    }

    /// Group labels of `list` in chain order.
    fn group_labels(list: &OmList) -> Vec<u64> {
        let inner = list.lock.lock();
        let mut out = Vec::new();
        let mut g = inner.head_group;
        while g != NIL {
            let group = list.groups.get(g as usize);
            out.push(group.label.load(Ordering::Relaxed));
            g = group.next.load(Ordering::Relaxed);
        }
        out
    }

    /// In a 16-bit group-label space fifteen splits at one spot use up the
    /// midpoints; the relabel that follows must respace an *interior*
    /// range — the groups outside it keep their labels — and the order,
    /// the model and every structural invariant survive it.
    #[test]
    fn range_relabel_respaces_only_the_dense_range() {
        let (list, base) = OmList::with_group_label_bits(16);
        let mut model = vec![base];
        // A far-away tail the hammer never touches: appended first, so its
        // groups sit at the top of the label space.
        let mut last = base;
        for _ in 0..400 {
            last = list.insert_after(last);
            model.push(last);
        }
        let before = group_labels(&list);
        assert_eq!(list.stats().respreads, 0, "appends alone found midpoints");
        let mut hammered = 0;
        while list.stats().respreads == 0 {
            let h = list.insert_after(base);
            model.insert(1, h);
            hammered += 1;
            assert!(hammered < 16 * 40, "16 halvings must exhaust 16 bits");
        }
        check_against_model(&model, &list);
        let after = group_labels(&list);
        let stats = list.stats();
        assert_eq!(stats.respreads, 1);
        // The relabelled range is a strict part of the chain: the last
        // groups (the untouched tail) kept their labels.
        let kept = before
            .iter()
            .rev()
            .zip(after.iter().rev())
            .take_while(|(b, a)| b == a)
            .count();
        assert!(
            kept >= 2,
            "tail groups were relabelled: {before:?} -> {after:?}"
        );
        assert!(after.len() - kept >= 3, "a range of several groups moved");
        // And the structure keeps working past many more range relabels.
        for _ in 0..3000 {
            let h = list.insert_after(base);
            model.insert(1, h);
        }
        check_against_model(&model, &list);
        assert!(list.stats().respreads > 1);
    }

    /// Random run inserts in a narrow label space: interior ranges and the
    /// whole-space fallback both occur, against the `Vec` model.
    #[test]
    fn narrow_label_space_random_runs_match_model() {
        let mut rng = StdRng::seed_from_u64(0x0B5E55ED);
        for bits in [8, 10, 12] {
            let (list, base) = OmList::with_group_label_bits(bits);
            let mut model = vec![base];
            // 2^bits labels hold the ~ 40 .. 90 groups this builds.
            for _ in 0..600 {
                // Clustered positions: most inserts land near the front.
                let pos = rng.random_range(0..model.len().min(8 + model.len() / 16));
                let run = list.insert_n_after(model[pos], [0; 3]);
                model.splice(pos + 1..pos + 1, run);
            }
            check_against_model(&model, &list);
            let stats = list.stats();
            assert!(stats.respreads > 0, "bits={bits}: {stats:?}");
            assert!(group_labels(&list).iter().all(|&l| l < 1 << bits));
        }
    }

    /// Two bits of group label hold four groups; the fifth has nowhere to
    /// go and the list says so instead of handing out duplicate labels.
    #[test]
    #[should_panic(expected = "group label space exhausted")]
    fn exhausted_label_space_panics() {
        let (list, base) = OmList::with_group_label_bits(2);
        for _ in 0..5 * (GROUP_MAX + 1) {
            list.insert_after(base);
        }
    }

    /// `(group, label)` of each handle, read raw.
    fn keys(list: &OmList, handles: &[OmHandle]) -> Vec<(u32, u64)> {
        handles
            .iter()
            .map(|h| {
                let slot = list.items.get(h.index());
                (
                    slot.group.load(Ordering::Relaxed),
                    slot.label.load(Ordering::Relaxed),
                )
            })
            .collect()
    }

    /// A split rewrites the half that moves; the half that stays keeps its
    /// labels while its gaps are wide (a moving front never narrows them),
    /// and is respaced in the same section once one is nearly used up (a
    /// fixed hot spot halves its gap on every insert).
    #[test]
    fn split_leaves_the_staying_half_alone_while_its_gaps_are_wide() {
        // Moving front: each insert goes after the previous one. (The very
        // first group is no example: its appends halve toward the top of
        // the label space from the base item's midpoint label.)
        let (list, base) = OmList::new();
        let mut last = base;
        while list.stats().splits == 0 {
            last = list.insert_after(last);
        }
        let keep = GROUP_MAX / 2;
        let mut second = list.iter_order().split_off(keep);
        assert!(keys(&list, &second).iter().all(|&(g, _)| g == 1));
        let mut before = Vec::new();
        while list.stats().splits == 1 {
            before = keys(&list, &second);
            last = list.insert_after(last);
            second.push(last);
        }
        let after = keys(&list, &second);
        assert_eq!(second.len(), GROUP_MAX + 1);
        assert_eq!(before[..keep], after[..keep], "staying half was rewritten");
        assert!(after[keep..].iter().all(|&(g, _)| g == 2), "{after:?}");
        list.check_invariants();

        // Hot spot: the gap after `base` halves on every insert, 33 times
        // between two splits — left alone it would run out (and escalate
        // for a relabel of its own) every other split. The splits respace
        // the staying half instead, so nothing after the first group's
        // start-up relabel ever escalates for labels.
        let (list, base) = OmList::new();
        for _ in 0..10_000 {
            list.insert_after(base);
        }
        let s = list.stats();
        assert!(s.relabels <= 1, "{s:?}");
        assert_eq!(s.fast_inserts + s.relabels, 10_000, "{s:?}");
        assert!(
            s.relabeled_slots > s.splits * (keep as u64 + 1) + s.relabels * (GROUP_MAX as u64 + 1),
            "some splits respaced the staying half too: {s:?}"
        );
        list.check_invariants();
    }

    /// The per-group statistics add up: every insert operation is either a
    /// fast-path completion or an escalation, every lock acquisition is
    /// counted once.
    #[test]
    fn per_group_statistics_sum_exactly() {
        let mut rng = StdRng::seed_from_u64(0x57A7);
        let (list, base) = OmList::new();
        let mut handles = vec![base];
        let ops = 20_000u64;
        for _ in 0..ops {
            let pos = rng.random_range(0..handles.len().min(50));
            handles.push(list.insert_n_after(handles[pos], [0; 2])[0]);
        }
        let s = list.stats();
        // Single-threaded, an insert that leaves the fast path always
        // finds its gap still exhausted and relabels.
        assert_eq!(s.fast_inserts + s.relabels, ops, "{s:?}");
        assert!(s.splits > 0, "{s:?}");
        // One acquisition per fast-path attempt plus one per escalation.
        assert_eq!(s.group_locks, ops + s.global_escalations, "{s:?}");
    }

    #[test]
    fn concurrent_queries_during_inserts_are_consistent() {
        use std::sync::atomic::{AtomicBool, Ordering as AOrd};
        use std::sync::Arc;
        let (list, base) = OmList::new();
        let list = Arc::new(list);
        // Build a chain a0 < a1 < ... < a9 that readers will verify forever.
        let mut chain = vec![base];
        for i in 0..9 {
            let h = list.insert_after(chain[i]);
            chain.push(h);
        }
        let stop = Arc::new(AtomicBool::new(false));
        let mut readers = Vec::new();
        for _ in 0..3 {
            let list = Arc::clone(&list);
            let chain = chain.clone();
            let stop = Arc::clone(&stop);
            readers.push(std::thread::spawn(move || {
                while !stop.load(AOrd::Relaxed) {
                    for w in chain.windows(2) {
                        assert!(list.precedes(w[0], w[1]));
                        assert!(!list.precedes(w[1], w[0]));
                    }
                }
            }));
        }
        // Hammer inserts right at the head to force splits and range
        // relabels of the group labels around it.
        for _ in 0..30_000 {
            list.insert_after(base);
        }
        stop.store(true, AOrd::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        assert!(list.relabel_count() > 0);
    }

    #[test]
    fn heap_bytes_reports_growth() {
        let (list, base) = OmList::new();
        let before = list.heap_bytes();
        let mut last = base;
        for _ in 0..10_000 {
            last = list.insert_after(last);
        }
        assert!(list.heap_bytes() > before);
    }
}
