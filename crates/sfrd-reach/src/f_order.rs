//! **F-Order** reachability — the general-futures baseline (Xu et al.,
//! PPoPP 2020, [43] in the paper).
//!
//! F-Order cannot exploit the structured-future properties, so instead of
//! SF-Order's one-bit-per-future `gp`/`cp` bitmaps it keeps, per strand, a
//! *hash table of non-SP ancestor operation nodes*: every create node and
//! put node `w` such that the non-SP edge leaving `w` lies on a path to the
//! strand. A query `u ≺ v` for `u ∈ F` then checks
//!
//! * `u ↠SP v` when `u` and `v` share a future (per-future SP order), or
//! * whether some recorded op node `w ∈ nsp(v) ∩ F` has `u ⪯SP w` — the
//!   first non-SP departure point of any path from `u` must be such a `w`.
//!
//! Tables store an SP-*maximal antichain* per future (dominated op nodes
//! are pruned), which is how the real F-Order keeps per-future entry counts
//! near `k̂`. This is exactly the cost structure the paper contrasts with:
//! hash-table allocation and O(k)-entry merges per create/get/divergent
//! sync, versus SF-Order's word-wise bitmap operations.

use std::sync::Arc;
use std::sync::OnceLock;

use sfrd_dag::FutureId;
use sfrd_om::AppendArena;

use crate::bitmap::SetStats;
use crate::hash::FxHashMap;
use crate::pos::Pos;
use crate::sp_order::{SpOrder, SpPos, SpTask, StrandPos};

/// Per-future antichain of non-SP departure points (create/put positions).
type NspTable = FxHashMap<FutureId, Vec<SpPos>>;

/// Per-task F-Order state.
#[derive(Debug)]
pub struct FoStrand {
    /// SP-Order state, owning future included.
    sp: SpTask,
    nsp: Arc<NspTable>,
}

impl FoStrand {
    /// The current strand's rich position.
    #[inline]
    pub fn pos(&self) -> StrandPos {
        StrandPos {
            sp: self.sp.pos(),
            future: self.future(),
        }
    }

    /// The current strand's position as the access history stores it
    /// ([`FoReach::resolve`] inverts it).
    #[inline]
    pub fn pos_id(&self) -> Pos {
        self.sp.pos_id()
    }

    /// Owning future id.
    #[inline]
    pub fn future(&self) -> FutureId {
        self.sp.future()
    }
}

/// Per-future state in the engine's node arena: the memoized
/// "done table" (`nsp(last(G)) + put node`) the first get publishes, so
/// fan-in gets of one future clone the table once, not once per getter.
/// Sound for the same reason as SF-Order's memoization: `done.nsp` is
/// frozen once the future completed, which the runtime orders before
/// every get.
#[derive(Debug, Default)]
struct FoNode {
    done: OnceLock<Arc<NspTable>>,
}

/// The F-Order reachability engine.
pub struct FoReach {
    sp: SpOrder,
    stats: SetStats,
    /// One node per future; a node's index is its future's id.
    nodes: AppendArena<FoNode>,
}

/// Rough heap footprint of one table (capacity-insensitive estimate used
/// for the Fig. 5 comparison).
fn table_bytes(t: &NspTable) -> usize {
    let entry = std::mem::size_of::<(FutureId, Vec<SpPos>)>() + 8;
    let pos = std::mem::size_of::<SpPos>();
    std::mem::size_of::<NspTable>()
        + t.len() * entry
        + t.values().map(|v| v.len() * pos).sum::<usize>()
}

impl FoReach {
    /// New engine; returns the root task's strand.
    pub fn new() -> (Self, FoStrand) {
        let (sp, task) = SpOrder::new();
        let engine = Self {
            sp,
            stats: SetStats::default(),
            nodes: AppendArena::new(),
        };
        engine.nodes.push(FoNode::default());
        let root = FoStrand {
            sp: task,
            nsp: Arc::new(NspTable::default()),
        };
        (engine, root)
    }

    /// The arena node of future `f` (published by its create, which every
    /// use of the id is ordered after).
    #[inline]
    fn node(&self, f: FutureId) -> &FoNode {
        self.nodes.get(f.index())
    }

    /// Insert op node `(f, w)` into `table` keeping the per-future
    /// antichain SP-maximal.
    fn insert_op(&self, table: &mut NspTable, f: FutureId, w: SpPos) {
        let ops = table.entry(f).or_default();
        // Dominated by an existing entry?
        if ops.iter().any(|&p| self.sp.precedes_eq(w, p)) {
            return;
        }
        // Remove entries the new op dominates.
        ops.retain(|&p| !self.sp.precedes_eq(p, w));
        ops.push(w);
    }

    /// `spawn`: child shares the table.
    pub fn spawn(&self, parent: &mut FoStrand) -> FoStrand {
        FoStrand {
            sp: self.sp.fork(&mut parent.sp),
            nsp: Arc::clone(&parent.nsp),
        }
    }

    /// `create`: the child's table gains the create node as a departure
    /// point — a fresh table allocation (O(k) copy), the cost SF-Order's
    /// `cp` bitmaps avoid. Pushing the future's node mints its id, before
    /// the fork, which records it as the owner of the child's first
    /// position.
    pub fn create(&self, parent: &mut FoStrand) -> FoStrand {
        let create_pos = parent.sp.pos();
        let parent_future = parent.future();
        let idx = self.nodes.push(FoNode::default());
        let fid = FutureId(u32::try_from(idx).expect("future ids fit in u32"));
        let child_sp = self.sp.fork_future(&mut parent.sp, fid);
        let mut table = (*parent.nsp).clone();
        self.insert_op(&mut table, parent_future, create_pos);
        self.note_alloc(&table);
        FoStrand {
            sp: child_sp,
            nsp: Arc::new(table),
        }
    }

    /// `sync`: merge children's tables into the continuation, sharing
    /// pointers when one side covers the other.
    pub fn sync<'a>(&self, s: &mut FoStrand, children: impl IntoIterator<Item = &'a FoStrand>) {
        self.sp.sync(&mut s.sp);
        for c in children {
            s.nsp = self.merge_tables(&s.nsp, &c.nsp);
        }
    }

    /// `get`: absorb the put side's table plus the put node itself. The
    /// "done table" depends only on the completed future, so the first
    /// get memoizes it in the future's arena node.
    pub fn get(&self, s: &mut FoStrand, done: &FoStrand) {
        let with_put = self.node(done.future()).done.get_or_init(|| {
            let mut t = (*done.nsp).clone();
            self.insert_op(&mut t, done.future(), done.sp.pos());
            self.note_alloc(&t);
            Arc::new(t)
        });
        s.nsp = self.merge_tables(&s.nsp, with_put);
    }

    /// Implicit task-end sync.
    pub fn task_end(&self, s: &mut FoStrand) {
        self.sp.sync(&mut s.sp);
    }

    /// Does the strand recorded as `u` precede the current strand `v`
    /// (reflexively)?
    pub fn precedes(&self, u: StrandPos, v: &FoStrand) -> bool {
        self.precedes_pos(u, v.pos(), &v.nsp)
    }

    /// [`precedes`](Self::precedes) for a position the access history
    /// stored: resolve the id, then query.
    #[inline]
    pub fn precedes_id(&self, u: Pos, v: &FoStrand) -> bool {
        self.precedes(self.resolve(u), v)
    }

    /// The rich position an id names (the inverse of [`FoStrand::pos_id`]).
    #[inline]
    pub fn resolve(&self, p: Pos) -> StrandPos {
        self.sp.resolve(p)
    }

    fn precedes_pos(&self, u: StrandPos, v: StrandPos, v_nsp: &NspTable) -> bool {
        if u.future == v.future && self.sp.precedes_eq(u.sp, v.sp) {
            return true;
        }
        match v_nsp.get(&u.future) {
            Some(ops) => ops.iter().any(|&w| self.sp.precedes_eq(u.sp, w)),
            None => false,
        }
    }

    fn merge_tables(&self, a: &Arc<NspTable>, b: &Arc<NspTable>) -> Arc<NspTable> {
        if Arc::ptr_eq(a, b) || table_subset(b, a) {
            return Arc::clone(a);
        }
        if table_subset(a, b) {
            return Arc::clone(b);
        }
        self.stats.note_merge();
        let mut out = (**a).clone();
        for (&f, ops) in b.iter() {
            for &w in ops {
                self.insert_op(&mut out, f, w);
            }
        }
        self.note_alloc(&out);
        Arc::new(out)
    }

    fn note_alloc(&self, t: &NspTable) {
        self.stats.note_alloc(table_bytes(t));
    }

    /// The underlying order structure (for access-history comparisons).
    pub fn sp_order(&self) -> &SpOrder {
        &self.sp
    }

    /// Number of futures created so far, root included.
    pub fn future_count(&self) -> u32 {
        self.nodes.len() as u32
    }

    /// Allocation statistics (Fig. 5).
    pub fn set_stats(&self) -> &SetStats {
        &self.stats
    }

    /// Heap bytes: OM lists + cumulative table payloads + the node arena.
    pub fn heap_bytes(&self) -> usize {
        self.sp.heap_bytes() + self.stats.snapshot().bytes as usize + self.nodes.heap_bytes()
    }
}

/// `a ⊆ b` by entry containment.
fn table_subset(a: &NspTable, b: &NspTable) -> bool {
    a.iter().all(|(f, ops)| {
        b.get(f)
            .is_some_and(|bops| ops.iter().all(|w| bops.contains(w)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_get_orders_strands() {
        let (eng, mut root) = FoReach::new();
        let mut fut = eng.create(&mut root);
        let inner = eng.spawn(&mut fut);
        eng.sync(&mut fut, [&inner]);
        eng.task_end(&mut fut);
        let put = fut.pos();
        assert!(
            !eng.precedes(put, &root),
            "future ∥ continuation before get"
        );
        eng.get(&mut root, &fut);
        assert!(eng.precedes(put, &root));
        assert!(eng.precedes(inner.pos(), &root));
    }

    #[test]
    fn create_node_precedes_future_contents() {
        let (eng, mut root) = FoReach::new();
        let before = root.pos();
        let fut = eng.create(&mut root);
        let after = root.pos();
        assert!(eng.precedes(before, &fut), "create node ≺ future body");
        assert!(!eng.precedes(after, &fut), "continuation ∥ future body");
    }

    #[test]
    fn sibling_futures_via_get_chain() {
        let (eng, mut root) = FoReach::new();
        let mut a = eng.create(&mut root);
        eng.task_end(&mut a);
        let a_pos = a.pos();
        eng.get(&mut root, &a);
        let b = eng.create(&mut root);
        assert!(eng.precedes(a_pos, &b));
        let mut c = eng.create(&mut root);
        eng.task_end(&mut c);
        assert!(
            !eng.precedes(c.pos(), &b),
            "siblings without get stay parallel"
        );
    }

    #[test]
    fn antichain_prunes_dominated_ops() {
        let (eng, mut root) = FoReach::new();
        // Two creates in series: the second create node dominates the first?
        // No — both are departure points for different futures, but both
        // entries live under the ROOT future key; the later create node
        // dominates the earlier one (serial), so one entry remains.
        let mut a = eng.create(&mut root);
        eng.task_end(&mut a);
        eng.get(&mut root, &a);
        let b = eng.create(&mut root);
        let root_ops = b.nsp.get(&FutureId::ROOT).unwrap();
        assert_eq!(root_ops.len(), 1, "dominated create node must be pruned");
    }

    #[test]
    fn table_growth_is_counted() {
        let (eng, mut root) = FoReach::new();
        let mut f = eng.create(&mut root);
        eng.task_end(&mut f);
        eng.get(&mut root, &f);
        let snap = eng.set_stats().snapshot();
        assert!(snap.allocations >= 2);
        assert!(snap.bytes > 0);
        assert!(eng.heap_bytes() > 0);
    }
}
