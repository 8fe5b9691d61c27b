//! **MultiBags** — the sequential structured-futures baseline (Utterback
//! et al., PPoPP 2019, [40] in the paper).
//!
//! MultiBags race-detects *while executing the program serially* in the
//! left-to-right depth-first order, which lets it replace order-maintenance
//! structures with SP-bags-style union-find: near-O(α) amortized per
//! construct, but inherently unparallelizable — exactly the trade-off the
//! paper's Fig. 4 measures (lowest T1 overhead, zero scalability).
//!
//! We implement it as the union-find specialization of the SF-Order query
//! structure (DESIGN.md §7): SP-bags over the pseudo-SP-dag answers the
//! `u ↠ v` cases of Algorithm 1, and the same `cp`/`gp` bitmaps (updated
//! without synchronization) answer the cross-future case.
//!
//! Classic SP-bags invariant (Feng–Leiserson), valid only mid-serial-DFS:
//! a previously executed access with element `e` is a serial ancestor of
//! the *currently executing* instruction iff `find(e)` is an **S-bag**;
//! it is logically parallel iff `find(e)` is a **P-bag**. Each task owns
//! one element; on task return the task's S-bag melds into the parent's
//! P-bag; `sync` melds the P-bag into the S-bag.
//!
//! The API is `&mut self` throughout and queries are only meaningful
//! against the current strand of the serial execution — the type system
//! plus the serial runtime enforce the paper's sequentiality requirement.

use std::sync::Arc;

use sfrd_dag::FutureId;

use crate::bitmap::{merge, with_future, FutureSet, SetStats};
use crate::pos::Pos;

/// A union-find element: one per task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BagElem(u32);

/// Bag polarity of a set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    S,
    P,
}

/// Union-find with per-root bag kind (path halving + union by rank), and
/// per element the future of the task that owns it: an element is the
/// task's access-history position, so its future is what a [`Pos`]
/// resolves to next to it.
#[derive(Debug, Default)]
struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
    kind: Vec<Kind>,
    future: Vec<u32>,
}

impl UnionFind {
    fn singleton(&mut self, kind: Kind, future: FutureId) -> BagElem {
        let id = self.parent.len() as u32;
        self.parent.push(id);
        self.rank.push(0);
        self.kind.push(kind);
        self.future.push(future.0);
        BagElem(id)
    }

    fn find(&mut self, e: BagElem) -> u32 {
        let mut x = e.0;
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    /// Union the sets of `a` and `b`; the merged set gets kind `kind`.
    fn union(&mut self, a: BagElem, b: BagElem, kind: Kind) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            self.kind[ra as usize] = kind;
            return;
        }
        let root = if self.rank[ra as usize] < self.rank[rb as usize] {
            self.parent[ra as usize] = rb;
            rb
        } else {
            if self.rank[ra as usize] == self.rank[rb as usize] {
                self.rank[ra as usize] += 1;
            }
            self.parent[rb as usize] = ra;
            ra
        };
        self.kind[root as usize] = kind;
    }

    fn retag(&mut self, e: BagElem, kind: Kind) {
        let r = self.find(e);
        self.kind[r as usize] = kind;
    }

    fn kind_of(&mut self, e: BagElem) -> Kind {
        let r = self.find(e);
        self.kind[r as usize]
    }

    fn heap_bytes(&self) -> usize {
        (self.parent.capacity() + self.future.capacity()) * 4
            + self.rank.capacity()
            + self.kind.capacity()
    }
}

/// Per-task MultiBags state (an SP-bags "procedure frame").
#[derive(Debug)]
pub struct MbStrand {
    /// The task's own element (access-history identity of its strands).
    elem: BagElem,
    /// Representative of the task's P-bag, if non-empty.
    p_rep: Option<BagElem>,
    future: FutureId,
    cp: Arc<FutureSet>,
    gp: Arc<FutureSet>,
}

/// MultiBags' rich strand position; the access history stores it
/// interned as a [`Pos`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MbPos {
    /// Union-find element of the owning task.
    pub elem: BagElem,
    /// Owning future.
    pub future: FutureId,
}

impl MbStrand {
    /// The current strand's rich position.
    #[inline]
    pub fn pos(&self) -> MbPos {
        MbPos {
            elem: self.elem,
            future: self.future,
        }
    }

    /// The current strand's position as the access history stores it: the
    /// task's element, interned ([`MbReach::resolve`] inverts it).
    #[inline]
    pub fn pos_id(&self) -> Pos {
        Pos::from_index(self.elem.0)
    }

    /// Owning future id.
    #[inline]
    pub fn future(&self) -> FutureId {
        self.future
    }

    /// Current `gp` table (shared).
    pub fn gp(&self) -> &Arc<FutureSet> {
        &self.gp
    }
}

/// The MultiBags engine. Sequential only (`&mut self`).
pub struct MbReach {
    uf: UnionFind,
    next_future: u32,
    stats: SetStats,
}

impl MbReach {
    /// New engine; returns the root task's frame.
    pub fn new() -> (Self, MbStrand) {
        let mut uf = UnionFind::default();
        let e0 = uf.singleton(Kind::S, FutureId::ROOT);
        let empty = Arc::new(FutureSet::empty());
        let engine = Self {
            uf,
            next_future: 1,
            stats: SetStats::default(),
        };
        let root = MbStrand {
            elem: e0,
            p_rep: None,
            future: FutureId::ROOT,
            cp: Arc::clone(&empty),
            gp: empty,
        };
        (engine, root)
    }

    /// `spawn`: new child frame with its own singleton S-bag. In the serial
    /// order the caller descends into the child immediately; the parent's
    /// element is unchanged (all strands of one task share its element).
    pub fn spawn(&mut self, parent: &mut MbStrand) -> MbStrand {
        self.child(parent, parent.future, Arc::clone(&parent.cp))
    }

    /// `create`: like spawn in the PSP view, plus the future bookkeeping.
    pub fn create(&mut self, parent: &mut MbStrand) -> MbStrand {
        let future = FutureId(self.next_future);
        self.next_future += 1;
        let cp = with_future(&parent.cp, parent.future, &self.stats);
        self.child(parent, future, cp)
    }

    /// A new task frame in `future`, with its own singleton S-bag.
    fn child(&mut self, parent: &MbStrand, future: FutureId, cp: Arc<FutureSet>) -> MbStrand {
        MbStrand {
            elem: self.uf.singleton(Kind::S, future),
            p_rep: None,
            future,
            cp,
            gp: Arc::clone(&parent.gp),
        }
    }

    /// A child task (spawned or created) returned to `parent` in the serial
    /// order: its S-bag becomes (part of) the parent's P-bag.
    pub fn task_return(&mut self, parent: &mut MbStrand, child: &MbStrand) {
        debug_assert!(child.p_rep.is_none(), "child returned without task_end");
        match parent.p_rep {
            Some(p) => self.uf.union(p, child.elem, Kind::P),
            None => {
                self.uf.retag(child.elem, Kind::P);
                parent.p_rep = Some(child.elem);
            }
        }
    }

    /// `sync`: fold the P-bag into the S-bag. `gp` unions over joined
    /// children are done by the caller via [`MbReach::absorb_gp`] *before*
    /// the corresponding `task_return` (matching SP-bags, which forgets
    /// child identities here).
    pub fn sync(&mut self, s: &mut MbStrand) {
        if let Some(p) = s.p_rep.take() {
            self.uf.union(s.elem, p, Kind::S);
        }
    }

    /// Merge a joined child's `gp` into the continuation's.
    pub fn absorb_gp(&mut self, s: &mut MbStrand, child_gp: &Arc<FutureSet>) {
        s.gp = merge(&s.gp, child_gp, &self.stats);
    }

    /// `get` of a completed future: `gp(g) = gp(u) ∪ gp(last(G)) ∪ {G}`.
    pub fn get(&mut self, s: &mut MbStrand, done: &MbStrand) {
        let with_done = with_future(&done.gp, done.future, &self.stats);
        s.gp = merge(&s.gp, &with_done, &self.stats);
    }

    /// Implicit task-end sync.
    pub fn task_end(&mut self, s: &mut MbStrand) {
        self.sync(s);
    }

    /// Algorithm 1 with SP-bags answering the `u ↠ v` cases: does the
    /// strand recorded as `u` precede the **currently executing** strand
    /// `v`? Only valid mid-serial-execution for the current strand.
    pub fn precedes(&mut self, u: MbPos, v: &MbStrand) -> bool {
        if u.future == v.future {
            return self.uf.kind_of(u.elem) == Kind::S;
        }
        if v.cp.contains(u.future) && self.uf.kind_of(u.elem) == Kind::S {
            return true;
        }
        v.gp.contains(u.future)
    }

    /// [`precedes`](Self::precedes) for a position the access history
    /// stored: resolve the id, then query.
    pub fn precedes_id(&mut self, u: Pos, v: &MbStrand) -> bool {
        let u = self.resolve(u);
        self.precedes(u, v)
    }

    /// The rich position an id names (the inverse of [`MbStrand::pos_id`]).
    pub fn resolve(&self, p: Pos) -> MbPos {
        MbPos {
            elem: BagElem(p.index()),
            future: FutureId(self.uf.future[p.index() as usize]),
        }
    }

    /// Number of futures, root included.
    pub fn future_count(&self) -> u32 {
        self.next_future
    }

    /// Allocation statistics.
    pub fn set_stats(&self) -> &SetStats {
        &self.stats
    }

    /// Heap bytes of the union-find plus bitmap payloads.
    pub fn heap_bytes(&self) -> usize {
        self.uf.heap_bytes() + self.stats.snapshot().bytes as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serial DFS of: spawn c; (c runs, writes); continuation; sync.
    #[test]
    fn spawned_child_parallel_until_sync() {
        let (mut eng, mut root) = MbReach::new();
        let mut child = eng.spawn(&mut root);
        let child_pos = child.pos();
        eng.task_end(&mut child);
        eng.task_return(&mut root, &child);
        // Executing the continuation: the child is in a P-bag.
        assert!(
            !eng.precedes(child_pos, &root),
            "unsynced child ∥ continuation"
        );
        eng.sync(&mut root);
        assert!(eng.precedes(child_pos, &root), "sync serializes the child");
    }

    #[test]
    fn created_future_parallel_until_get() {
        let (mut eng, mut root) = MbReach::new();
        let mut fut = eng.create(&mut root);
        let fut_pos = fut.pos();
        eng.task_end(&mut fut);
        eng.task_return(&mut root, &fut);
        assert!(!eng.precedes(fut_pos, &root));
        eng.get(&mut root, &fut);
        assert!(
            eng.precedes(fut_pos, &root),
            "get serializes the future via gp"
        );
    }

    #[test]
    fn same_task_strands_always_serial() {
        let (mut eng, mut root) = MbReach::new();
        let first = root.pos();
        let mut child = eng.spawn(&mut root);
        // Inside the child: the parent's pre-spawn access is serial.
        assert!(eng.precedes(first, &child));
        eng.task_end(&mut child);
        eng.task_return(&mut root, &child);
        assert!(eng.precedes(first, &root));
        assert!(eng.precedes(root.pos(), &root), "strand ⪯ itself");
    }

    #[test]
    fn nested_spawn_grandchild_relations() {
        let (mut eng, mut root) = MbReach::new();
        let mut c = eng.spawn(&mut root);
        // Inside child: spawn grandchild.
        let mut d = eng.spawn(&mut c);
        let d_pos = d.pos();
        eng.task_end(&mut d);
        eng.task_return(&mut c, &d);
        // Executing child's continuation: d is parallel.
        assert!(!eng.precedes(d_pos, &c));
        eng.sync(&mut c);
        assert!(eng.precedes(d_pos, &c));
        eng.task_end(&mut c);
        eng.task_return(&mut root, &c);
        assert!(
            !eng.precedes(d_pos, &root),
            "whole child subtree ∥ continuation"
        );
        eng.sync(&mut root);
        assert!(eng.precedes(d_pos, &root));
    }

    /// DFS-ordered create: queries inside the future body see the create
    /// node as serial (cp + S-bag route).
    #[test]
    fn ancestor_future_case_uses_bags() {
        let (mut eng, mut root) = MbReach::new();
        let before = root.pos();
        let mut fut = eng.create(&mut root);
        // Serially we are now *inside* the future.
        assert!(
            eng.precedes(before, &fut),
            "create node ≺ future body (cp + S-bag)"
        );
        // Nested future: grandchild sees the root strand too.
        let grand = eng.create(&mut fut);
        assert!(eng.precedes(before, &grand));
        assert!(grand.cp.contains(FutureId::ROOT) && grand.cp.contains(fut.future()));
    }

    /// A spawned sibling that ran *before* the create is in the parent's
    /// P-bag while the future executes: parallel, even though cp matches.
    #[test]
    fn parallel_sibling_not_serialized_by_cp_route() {
        let (mut eng, mut root) = MbReach::new();
        let mut sib = eng.spawn(&mut root);
        let sib_pos = sib.pos();
        eng.task_end(&mut sib);
        eng.task_return(&mut root, &sib);
        // No sync: now create a future while sib is unsynced.
        let fut = eng.create(&mut root);
        assert!(
            !eng.precedes(sib_pos, &fut),
            "unsynced sibling ∥ future body"
        );
    }

    #[test]
    fn sibling_futures_via_gp() {
        let (mut eng, mut root) = MbReach::new();
        let mut a = eng.create(&mut root);
        let a_pos = a.pos();
        eng.task_end(&mut a);
        eng.task_return(&mut root, &a);
        eng.get(&mut root, &a);
        let b = eng.create(&mut root);
        assert!(eng.precedes(a_pos, &b));
        assert!(b.gp.contains(a.future()));
    }

    #[test]
    fn heap_and_counters() {
        let (mut eng, mut root) = MbReach::new();
        let mut f = eng.create(&mut root);
        eng.task_end(&mut f);
        eng.task_return(&mut root, &f);
        eng.get(&mut root, &f);
        assert!(eng.heap_bytes() > 0);
        assert_eq!(eng.future_count(), 2);
    }
}
