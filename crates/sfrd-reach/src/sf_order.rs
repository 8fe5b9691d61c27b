//! **SF-Order reachability** — the paper's core contribution (§3).
//!
//! Three structures, exactly as §3.2:
//!
//! 1. [`SpOrder`] on the pseudo-SP-dag — answers `u ↠ v` in O(1);
//! 2. per-future `cp(G)` — the bitmap of `G`'s proper future ancestors;
//! 3. per-strand `gp(v)` — the bitmap of futures `F` with
//!    `last(F) ;NSP v`.
//!
//! Query (Algorithm 1), for `u ∈ F`, `v ∈ G`:
//!
//! ```text
//! if F == G           → u ↠ v          (Lemmas 3.3/3.7)
//! if F ∈ cp(G)        → u ↠ v          (Lemmas 3.5/3.8/3.9)
//! else                → F ∈ gp(v)      (Lemma 3.4)
//! ```
//!
//! All three checks are O(1), giving the paper's constant-time query.
//! Maintenance (§3.4): `cp` is copied once per creating future (O(k)
//! each, O(k²) total; all children of one future share its copy); `gp`
//! is pointer-shared through single-parent nodes and merged at sync/get
//! nodes only when both sides diverge (O(k) merges total).
//!
//! Layout: per-future state (`cp`, plus the memoized `cp(G) ∪ {G}` a
//! create publishes and `gp(last(G)) ∪ {G}` a get publishes) is one node
//! in an [`AppendArena`], and the node's index is the future's id.
//! Strands stay small (a spawn does not bump a `cp` refcount), nodes of
//! nearby futures share cache lines, and repeated creates by one future
//! and repeated gets of one future reuse one set instead of rebuilding
//! it. Memoization is sound because `cp(G)` is fixed at `G`'s create and
//! `done.gp` is frozen by the time any get observes the future completed
//! (the runtime orders `task_end` before every `get`), so the
//! first-computed value is *the* value.

use std::sync::Arc;
use std::sync::OnceLock;

use sfrd_dag::FutureId;
use sfrd_om::AppendArena;

use crate::bitmap::{merge, with_future, FutureSet, SetStats};
use crate::pos::Pos;
use crate::sp_order::{SpOrder, SpTask, StrandPos};

/// SF-Order's rich strand position (shared with F-Order); the access
/// history stores it interned as a [`Pos`].
pub type SfPos = StrandPos;

/// Per-task SF-Order state, threaded through the runtime hooks. The
/// owning future's `cp` is *not* carried here — it lives in the engine's
/// node arena, looked up by future on the (rarer) cross-future query.
#[derive(Debug)]
pub struct SfStrand {
    /// SP-Order state, owning future included.
    sp: SpTask,
    /// `gp` of the current strand.
    gp: Arc<FutureSet>,
}

/// Per-future state in the engine's node arena.
#[derive(Debug)]
struct SfNode {
    /// `cp` of the future (proper future ancestors), fixed at create.
    cp: Arc<FutureSet>,
    /// Memoized `cp(G) ∪ {G}`, the `cp` of every future `G` creates,
    /// published by the first create.
    child_cp: OnceLock<Arc<FutureSet>>,
    /// Memoized `gp(last(G)) ∪ {G}`, published by the first get.
    done_gp: OnceLock<Arc<FutureSet>>,
}

impl SfNode {
    fn new(cp: Arc<FutureSet>) -> Self {
        Self {
            cp,
            child_cp: OnceLock::new(),
            done_gp: OnceLock::new(),
        }
    }
}

impl SfStrand {
    /// The current strand's rich position.
    #[inline]
    pub fn pos(&self) -> SfPos {
        StrandPos {
            sp: self.sp.pos(),
            future: self.future(),
        }
    }

    /// The current strand's position as the access history stores it
    /// ([`SfReach::resolve`] inverts it).
    #[inline]
    pub fn pos_id(&self) -> Pos {
        self.sp.pos_id()
    }

    /// Owning future id.
    #[inline]
    pub fn future(&self) -> FutureId {
        self.sp.future()
    }

    /// Current `gp` table (shared).
    pub fn gp(&self) -> &Arc<FutureSet> {
        &self.gp
    }
}

/// The SF-Order reachability engine. Thread-safe: hook methods take the
/// calling task's own strand mutably and may run concurrently across tasks.
pub struct SfReach {
    sp: SpOrder,
    stats: SetStats,
    /// One node per future; a node's index is its future's id.
    nodes: AppendArena<SfNode>,
}

impl SfReach {
    /// New engine; returns the root task's strand (future 0).
    pub fn new() -> (Self, SfStrand) {
        let (sp, task) = SpOrder::new();
        let empty = Arc::new(FutureSet::empty());
        let engine = Self {
            sp,
            stats: SetStats::default(),
            nodes: AppendArena::new(),
        };
        engine.nodes.push(SfNode::new(Arc::clone(&empty)));
        let root = SfStrand {
            sp: task,
            gp: empty,
        };
        (engine, root)
    }

    /// The arena node of future `f`. A future id only reaches a caller
    /// through events ordered after its create, which returns only once
    /// the node is published.
    #[inline]
    fn node(&self, f: FutureId) -> &SfNode {
        self.nodes.get(f.index())
    }

    /// `spawn`: child shares the future and (pointer-shared) `gp`; `cp`
    /// is per-future state in the arena, so nothing else is copied.
    pub fn spawn(&self, parent: &mut SfStrand) -> SfStrand {
        SfStrand {
            sp: self.sp.fork(&mut parent.sp),
            gp: Arc::clone(&parent.gp),
        }
    }

    /// `create`: the child's `cp` is the parent's plus the parent future
    /// itself (the O(k)-per-create copy of Lemma 3.12). Both parts are
    /// fixed once the parent future exists, so its first create memoizes
    /// the set in the parent's node and every later sibling shares it.
    /// Pushing the new future's node into the arena mints its id, before
    /// the fork, which records the id as the owner of the child's first
    /// position.
    pub fn create(&self, parent: &mut SfStrand) -> SfStrand {
        let pf = parent.future();
        let node = self.node(pf);
        let cp = node
            .child_cp
            .get_or_init(|| with_future(&node.cp, pf, &self.stats));
        let idx = self.nodes.push(SfNode::new(Arc::clone(cp)));
        let fid = FutureId(u32::try_from(idx).expect("future ids fit in u32"));
        let child_sp = self.sp.fork_future(&mut parent.sp, fid);
        SfStrand {
            sp: child_sp,
            gp: Arc::clone(&parent.gp),
        }
    }

    /// `sync`: join spawned children; `gp(s) = gp(u) ∪ ⋃ gp(cᵢ)`. A child
    /// that still shares the parent's set (it got nothing) adds nothing.
    pub fn sync<'a>(&self, s: &mut SfStrand, children: impl IntoIterator<Item = &'a SfStrand>) {
        self.sp.sync(&mut s.sp);
        for c in children {
            debug_assert_eq!(c.future(), s.future());
            if !Arc::ptr_eq(&s.gp, &c.gp) {
                s.gp = merge(&s.gp, &c.gp, &self.stats);
            }
        }
    }

    /// `get` of a completed future whose final strand is `done`:
    /// `gp(g) = gp(u) ∪ gp(last(G)) ∪ {G}`. The `gp(last(G)) ∪ {G}` part
    /// depends only on the completed future, so the first get memoizes it
    /// in the future's arena node and later gets (fan-in on a popular
    /// future) merge the shared set instead of rebuilding it.
    pub fn get(&self, s: &mut SfStrand, done: &SfStrand) {
        let with_done = self
            .node(done.future())
            .done_gp
            .get_or_init(|| with_future(&done.gp, done.future(), &self.stats));
        s.gp = merge(&s.gp, with_done, &self.stats);
    }

    /// Implicit task-end sync (closes the PSP sync block).
    pub fn task_end(&self, s: &mut SfStrand) {
        self.sp.sync(&mut s.sp);
    }

    /// **Algorithm 1**: does the strand recorded as `u` precede the current
    /// strand `v` (reflexively)? O(1). The same-future case answers from
    /// the strand alone; only the cross-future cases touch `cp`, which is
    /// one arena lookup away.
    #[inline]
    pub fn precedes(&self, u: SfPos, v: &SfStrand) -> bool {
        if u.future == v.future() {
            return self.sp.precedes_eq(u.sp, v.sp.pos());
        }
        self.precedes_pos(u, v.pos(), &self.node(v.future()).cp, &v.gp)
    }

    /// [`precedes`](Self::precedes) for a position the access history
    /// stored: resolve the id, then run Algorithm 1.
    #[inline]
    pub fn precedes_id(&self, u: Pos, v: &SfStrand) -> bool {
        self.precedes(self.resolve(u), v)
    }

    /// The rich position an id names (the inverse of [`SfStrand::pos_id`]).
    #[inline]
    pub fn resolve(&self, p: Pos) -> SfPos {
        self.sp.resolve(p)
    }

    /// Query between two recorded positions, given the querier also knows
    /// `v`'s `cp`/`gp`. This is Algorithm 1 verbatim, including the
    /// fall-through: a failed case-2 PSP check still consults `gp(v)`
    /// (line 6). For `F = G` the fall-through provably cannot fire
    /// (`F ∈ gp(v)` would require `last(F) ≺ v ∈ F`), so we return the PSP
    /// answer directly there.
    pub fn precedes_pos(&self, u: SfPos, v: SfPos, v_cp: &FutureSet, v_gp: &FutureSet) -> bool {
        if u.future == v.future {
            return self.sp.precedes_eq(u.sp, v.sp);
        }
        if v_cp.contains(u.future) && self.sp.precedes_eq(u.sp, v.sp) {
            return true;
        }
        v_gp.contains(u.future)
    }

    /// The underlying pseudo-SP-dag order structure (for access-history
    /// leftmost/rightmost comparisons).
    pub fn sp_order(&self) -> &SpOrder {
        &self.sp
    }

    /// Number of futures created so far (k), root included.
    pub fn future_count(&self) -> u32 {
        self.nodes.len() as u32
    }

    /// Bitmap allocation statistics (Fig. 5).
    pub fn set_stats(&self) -> &SetStats {
        &self.stats
    }

    /// `cp` of future `f` — the per-future ancestor set from the arena.
    pub fn cp_of(&self, f: FutureId) -> &Arc<FutureSet> {
        &self.node(f).cp
    }

    /// Heap bytes of the reachability structures: OM lists + cumulative
    /// bitmap payloads + the node arena.
    pub fn heap_bytes(&self) -> usize {
        self.sp.heap_bytes() + self.stats.snapshot().bytes as usize + self.nodes.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// root creates F; root's continuation is ∥ F; after get, F ≺ root.
    #[test]
    fn create_get_basic_relations() {
        let (eng, mut root) = SfReach::new();
        let u0 = root.pos();
        let mut fut = eng.create(&mut root);
        let fut_first = fut.pos();
        let k = root.pos();
        // Future does some work (a fork inside, to move its strand).
        let inner = eng.spawn(&mut fut);
        eng.sync(&mut fut, [&inner]);
        eng.task_end(&mut fut);
        let put = fut.pos();

        // Before the get: future strands ∥ continuation.
        assert!(eng.precedes(u0, &root));
        assert!(
            !eng.precedes(fut_first, &root),
            "created future ∥ continuation"
        );
        assert!(!eng.precedes(put, &root));
        let _ = k;

        eng.get(&mut root, &fut);
        assert!(eng.precedes(put, &root), "after get, put ≺ getter");
        assert!(eng.precedes(fut_first, &root));
        assert!(
            eng.precedes(inner.pos(), &root),
            "nested strands precede via last(F)"
        );
    }

    /// Case 2: ancestor-future strands relate to descendants through PSP.
    #[test]
    fn ancestor_descendant_uses_psp() {
        let (eng, mut root) = SfReach::new();
        let before = root.pos();
        let mut f = eng.create(&mut root);
        let after_create = root.pos();
        let g = eng.create(&mut f); // grandchild future
                                    // The create node (before) precedes everything in F and G.
        assert!(eng.precedes(before, &f));
        assert!(eng.precedes(before, &g));
        // The root's continuation after the create is ∥ F and G.
        assert!(!eng.precedes(after_create, &g));
        // cp chains: G's ancestors are {root, F}.
        let g_cp = eng.cp_of(g.future());
        assert!(g_cp.contains(FutureId::ROOT));
        assert!(g_cp.contains(f.future()));
        assert!(!g_cp.contains(g.future()));
    }

    /// Case 3: sibling futures are unrelated until a get links them.
    #[test]
    fn sibling_futures_linked_by_get() {
        let (eng, mut root) = SfReach::new();
        let mut a = eng.create(&mut root);
        eng.task_end(&mut a);
        let a_pos = a.pos();
        // Sibling future B created after getting A: A's strands precede B's.
        eng.get(&mut root, &a);
        let mut b = eng.create(&mut root);
        assert!(
            eng.precedes(a_pos, &b),
            "A's put flows into B via gp inheritance"
        );
        assert!(b.gp().contains(a.future()));
        eng.task_end(&mut b);
        // Reverse direction must be false.
        assert!(!eng.precedes(b.pos(), &a));
    }

    /// Siblings with no get between them are parallel.
    #[test]
    fn sibling_futures_without_get_are_parallel() {
        let (eng, mut root) = SfReach::new();
        let mut a = eng.create(&mut root);
        eng.task_end(&mut a);
        let mut b = eng.create(&mut root);
        eng.task_end(&mut b);
        assert!(!eng.precedes(a.pos(), &b));
        assert!(!eng.precedes(b.pos(), &a));
    }

    /// The phantom-path hazard of §3.1: sibling future C must stay parallel
    /// to strands after F's sync even though PSP has a fake path.
    #[test]
    fn phantom_paths_do_not_leak() {
        let (eng, mut root) = SfReach::new();
        // root creates C (never gotten before the probe).
        let mut c = eng.create(&mut root);
        eng.task_end(&mut c);
        let c_pos = c.pos();
        // root spawns + syncs — in PSP, C joins this sync (fake edge!).
        let sp = eng.spawn(&mut root);
        eng.sync(&mut root, [&sp]);
        // After the sync, C is still logically parallel to root.
        assert!(
            !eng.precedes(c_pos, &root),
            "fake PSP join must not order the ungotten future before the sync"
        );
        // ... but the gp route reports it once gotten.
        eng.get(&mut root, &c);
        assert!(eng.precedes(c_pos, &root));
    }

    #[test]
    fn future_ids_are_dense() {
        let (eng, mut root) = SfReach::new();
        let a = eng.create(&mut root);
        let b = eng.create(&mut root);
        assert_eq!(a.future(), FutureId(1));
        assert_eq!(b.future(), FutureId(2));
        assert_eq!(eng.future_count(), 3);
    }

    /// Fan-in gets of one future must reuse the memoized
    /// `gp(last(G)) ∪ {G}` set instead of rebuilding it per getter.
    #[test]
    fn repeated_gets_reuse_memoized_done_set() {
        let (eng, mut root) = SfReach::new();
        let mut f = eng.create(&mut root);
        eng.task_end(&mut f);
        let mut sib = eng.spawn(&mut root);
        eng.get(&mut root, &f);
        let after_first = eng.set_stats().snapshot().allocations;
        eng.get(&mut sib, &f);
        assert_eq!(
            eng.set_stats().snapshot().allocations,
            after_first,
            "second get of the same future must not allocate"
        );
        assert!(
            Arc::ptr_eq(root.gp(), sib.gp()),
            "both getters share the one memoized set"
        );
        assert!(eng.precedes(f.pos(), &sib));
    }

    #[test]
    fn heap_bytes_nonzero_after_activity() {
        let (eng, mut root) = SfReach::new();
        let mut f = eng.create(&mut root);
        eng.task_end(&mut f);
        eng.get(&mut root, &f);
        assert!(eng.heap_bytes() > 0);
        // Sets of at most 8 ids are a tail alone: allocations are counted
        // but carry no payload.
        let snap = eng.set_stats().snapshot();
        assert!(snap.allocations >= 1);
        assert_eq!(snap.bytes, 0, "tail-only sets must be payload-free");
        assert_eq!(eng.cp_of(f.future()).heap_bytes(), 0);
    }

    /// Future ids past 2^20, where the fixed node directory before
    /// `AppendArena` ran out: 2^20 + 2 creates from the root, no gets.
    #[test]
    fn more_than_a_million_futures() {
        const N: u32 = (1 << 20) + 2;
        let (eng, mut root) = SfReach::new();
        let start = root.pos();
        let (mut below, mut above) = (None, None);
        for id in 1..=N {
            let fut = eng.create(&mut root);
            if id == (1 << 20) - 1 {
                below = Some(fut);
            } else if id == N {
                above = Some(fut);
            }
        }
        let (below, above) = (below.unwrap(), above.unwrap());
        assert_eq!(eng.future_count(), N + 1);
        assert_eq!(above.future(), FutureId(N));
        assert!(eng.precedes(start, &below) && eng.precedes(start, &above));
        assert!(!eng.precedes(below.pos(), &above), "siblings stay parallel");
        assert!(!eng.precedes(above.pos(), &below), "siblings stay parallel");
        assert!(!eng.precedes(above.pos(), &root), "ungotten future ∥ root");
        assert!(eng.cp_of(above.future()).contains(FutureId::ROOT));
    }
}
