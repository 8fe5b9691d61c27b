//! SP-Order maintenance over the pseudo-SP-dag.
//!
//! Keeps every strand of `PSP(D)` in two order-maintenance total orders —
//! the *English* order (left-to-right depth-first) and the *Hebrew* order
//! (right-to-left depth-first) — so that `u ↠ v` (reachability in the
//! pseudo-SP-dag) is answered in O(1): `u ↠ v` iff `u` comes before `v` in
//! **both** orders (Nudler–Rudolph; maintained as in WSP-Order [39]).
//!
//! Insertion rules (derived in DESIGN.md §5; `u` is the strand executing
//! the construct, `c` the child's first strand, `k` the continuation, `s`
//! the pre-created strand that follows the *next* sync):
//!
//! * first spawn/create of a sync block: English `u, c, k, s`;
//!   Hebrew `u, k, c, s`;
//! * later spawn/create in the block, `u` handed out since the last fork:
//!   English inserts `c, k` right after `u` (before `s`); Hebrew inserts
//!   `k, c` right after `u` (child subtrees pile up *before* `s` and after
//!   all continuations);
//! * later spawn/create in the block, `u` never handed out: `u` is its own
//!   continuation. English inserts `c` right before `u`, Hebrew right after
//!   it — where the two rules above would put `c` relative to `k`, with
//!   nothing that anyone could compare sitting between `u` and `k`;
//! * `sync` (and the implicit task-end sync): the strand *becomes* `s`;
//! * `get`: no effect — in `PSP(D)` the get node is a serial continuation,
//!   so it shares its predecessor's position.
//!
//! A position is *handed out* when [`SpTask::pos`] or [`SpTask::pos_id`]
//! returns it: every access, query and recorded position goes through one
//! of the two. Restricted to the positions handed out, the orders are the
//! ones the eager rule builds, so no answer changes; a spawn loop with
//! nothing in between pays one insert per list and spawn instead of two.
//!
//! In `PSP(D)` a `create` is exactly a `spawn` (joined at the block's
//! sync), so both constructs use the same rule.
//!
//! Every position a fork inserts belongs to one future (the child's first
//! strand to the child, the continuation and the post-sync strand to the
//! forking task), and the inserts record it for the access history's
//! [`Pos`] ids: each English item's `aux` word is its Hebrew twin's handle,
//! each Hebrew item's is the owning future ([`SpOrder::resolve`]). The
//! Hebrew run is inserted first so that its handles exist when the English
//! run is written.

use std::cell::Cell;

use sfrd_dag::FutureId;
use sfrd_om::{OmHandle, OmList};

use crate::pos::Pos;

/// A strand's position: one handle in each total order. Strands that are
/// serially equivalent in `PSP(D)` may share a position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpPos {
    /// Position in the English (left-to-right DFS) order.
    pub eng: OmHandle,
    /// Position in the Hebrew (right-to-left DFS) order.
    pub heb: OmHandle,
}

/// A strand's identity for access-history purposes: its pseudo-SP-dag
/// position plus the future task that owns it. Every reachability engine
/// (SF-Order, F-Order, MultiBags) keys its queries on this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StrandPos {
    /// Position in the pseudo-SP-dag orders.
    pub sp: SpPos,
    /// Owning future task.
    pub future: FutureId,
}

/// A Hebrew handle as its English twin's `aux` word.
fn handle_word(h: OmHandle) -> u32 {
    h.index() as u32
}

/// The English handle an id is.
#[inline]
fn eng_handle(p: Pos) -> OmHandle {
    OmHandle::from_index(p.index())
}

/// Per-task SP-Order state. Each runtime task owns exactly one.
#[derive(Debug)]
pub struct SpTask {
    /// Current strand position.
    cur: SpPos,
    /// `cur` was handed out ([`pos`](Self::pos), [`pos_id`](Self::pos_id))
    /// since the last fork. A later fork in the block reuses an unseen
    /// `cur` as its continuation instead of inserting a new one.
    seen: Cell<bool>,
    /// The pre-created post-sync position of the currently open sync block.
    block: Option<SpPos>,
    /// The future the task runs in: the owner of every position it forks
    /// for itself.
    future: FutureId,
}

impl SpTask {
    /// The task's current strand position.
    #[inline]
    pub fn pos(&self) -> SpPos {
        self.seen.set(true);
        self.cur
    }

    /// The current position as the access history stores it: the English
    /// handle, interned ([`SpOrder::resolve`] inverts it).
    #[inline]
    pub fn pos_id(&self) -> Pos {
        self.seen.set(true);
        Pos::from_index(self.cur.eng.index() as u32)
    }

    /// The future the task runs in.
    #[inline]
    pub fn future(&self) -> FutureId {
        self.future
    }
}

/// The two OM lists plus query logic.
pub struct SpOrder {
    eng: OmList,
    heb: OmList,
}

impl SpOrder {
    /// New structure; returns the root task's state (future 0). The two
    /// base items' `aux` words are 0: handle 0 and [`FutureId::ROOT`].
    pub fn new() -> (Self, SpTask) {
        let (eng, e0) = OmList::new();
        let (heb, h0) = OmList::new();
        (
            Self { eng, heb },
            SpTask {
                cur: SpPos { eng: e0, heb: h0 },
                seen: Cell::new(false),
                block: None,
                future: FutureId::ROOT,
            },
        )
    }

    /// Handle a `spawn` by task `t` (or the fork half of a `create`, whose
    /// child then runs in `t`'s future); returns the child task's state.
    /// Thread-safe: concurrent tasks may call this simultaneously.
    pub fn fork(&self, t: &mut SpTask) -> SpTask {
        self.fork_future(t, t.future)
    }

    /// [`fork`](Self::fork) for a child task that runs in `future`: a
    /// `create`, whose engine mints the future id before it forks.
    pub fn fork_future(&self, t: &mut SpTask, future: FutureId) -> SpTask {
        let u = t.cur;
        let (own, child) = (t.future.0, future.0);
        // Each list is updated with ONE combined run insert (a single
        // group-lock acquisition) instead of one insert per position.
        let child_pos = if t.block.is_none() {
            // English: u, c, k, s — Hebrew: u, k, c, s.
            let [k_heb, c_heb, s_heb] = self.heb.insert_n_after(u.heb, [own, child, own]);
            let [c_eng, k_eng, s_eng] = self
                .eng
                .insert_n_after(u.eng, [c_heb, k_heb, s_heb].map(handle_word));
            t.block = Some(SpPos {
                eng: s_eng,
                heb: s_heb,
            });
            t.cur = SpPos {
                eng: k_eng,
                heb: k_heb,
            };
            SpPos {
                eng: c_eng,
                heb: c_heb,
            }
        } else if t.seen.get() {
            // English inserts c, k after u; Hebrew inserts k, c after u
            // (child subtrees pile up before s, after all continuations).
            let [k_heb, c_heb] = self.heb.insert_n_after(u.heb, [own, child]);
            let [c_eng, k_eng] = self
                .eng
                .insert_n_after(u.eng, [c_heb, k_heb].map(handle_word));
            t.cur = SpPos {
                eng: k_eng,
                heb: k_heb,
            };
            SpPos {
                eng: c_eng,
                heb: c_heb,
            }
        } else {
            // Nobody saw u: it stays the continuation. English c, u;
            // Hebrew u, c.
            let [c_heb] = self.heb.insert_n_after(u.heb, [child]);
            let [c_eng] = self.eng.insert_n_before(u.eng, [handle_word(c_heb)]);
            SpPos {
                eng: c_eng,
                heb: c_heb,
            }
        };
        t.seen.set(false);
        SpTask {
            cur: child_pos,
            seen: Cell::new(false),
            block: None,
            future,
        }
    }

    /// The pseudo-SP-dag position an id names: its English handle, and the
    /// Hebrew handle that item's `aux` word holds.
    #[inline]
    pub fn sp_pos(&self, p: Pos) -> SpPos {
        let eng = eng_handle(p);
        SpPos {
            eng,
            heb: OmHandle::from_index(self.eng.aux(eng)),
        }
    }

    /// The strand position an id names: [`sp_pos`](Self::sp_pos) plus the
    /// future the Hebrew item's `aux` word holds. Both reads land on the
    /// item slots an order query on the same position loads anyway.
    #[inline]
    pub fn resolve(&self, p: Pos) -> StrandPos {
        let sp = self.sp_pos(p);
        StrandPos {
            sp,
            future: FutureId(self.heb.aux(sp.heb)),
        }
    }

    /// Handle a `sync` (or the implicit task-end sync): the task's strand
    /// moves to the block's post-sync position. No-op when the block is
    /// closed (nothing was forked since the last sync).
    pub fn sync(&self, t: &mut SpTask) {
        if let Some(s) = t.block.take() {
            t.cur = s;
        }
    }

    /// `a ⪯ b` in the pseudo-SP-dag (reflexive): true iff `a` equals `b`
    /// or precedes it in both total orders.
    #[inline]
    pub fn precedes_eq(&self, a: SpPos, b: SpPos) -> bool {
        if a == b {
            return true;
        }
        self.eng.precedes(a.eng, b.eng) && self.heb.precedes(a.heb, b.heb)
    }

    /// `a` strictly before `b` in the English (left-to-right DFS) order.
    /// An id is its English handle, so nothing is resolved.
    #[inline]
    pub fn eng_precedes(&self, a: Pos, b: Pos) -> bool {
        self.eng.precedes(eng_handle(a), eng_handle(b))
    }

    /// `a` strictly before `b` in the Hebrew (right-to-left DFS) order.
    #[inline]
    pub fn heb_precedes(&self, a: Pos, b: Pos) -> bool {
        self.heb.precedes(self.sp_pos(a).heb, self.sp_pos(b).heb)
    }

    /// Heap bytes of both OM lists (memory reporting).
    pub fn heap_bytes(&self) -> usize {
        self.eng.heap_bytes() + self.heb.heap_bytes()
    }

    /// Combined contention counters of both OM lists.
    pub fn om_stats(&self) -> sfrd_om::OmStats {
        self.eng.stats().merge(self.heb.stats())
    }

    /// Number of distinct strand positions allocated.
    pub fn positions(&self) -> usize {
        self.eng.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// spawn c1; sync; spawn c2; sync — c1 ≺ c2, each child ∥ its continuation.
    #[test]
    fn serial_spawns_are_ordered_by_sync() {
        let (sp, mut root) = SpOrder::new();
        let u0 = root.pos();
        let c1 = sp.fork(&mut root);
        let k1 = root.pos();
        sp.sync(&mut root);
        let s1 = root.pos();
        let c2 = sp.fork(&mut root);
        let k2 = root.pos();
        sp.sync(&mut root);
        let s2 = root.pos();

        assert!(sp.precedes_eq(u0, c1.pos()));
        assert!(sp.precedes_eq(c1.pos(), s1));
        assert!(
            sp.precedes_eq(c1.pos(), c2.pos()),
            "sync serializes c1 before c2"
        );
        assert!(
            !sp.precedes_eq(c1.pos(), k1) && !sp.precedes_eq(k1, c1.pos()),
            "c1 ∥ k1"
        );
        assert!(
            !sp.precedes_eq(c2.pos(), k2) && !sp.precedes_eq(k2, c2.pos()),
            "c2 ∥ k2"
        );
        assert!(sp.precedes_eq(c2.pos(), s2));
        assert!(!sp.precedes_eq(s2, c2.pos()));
    }

    /// Two spawns in the SAME block are mutually parallel.
    #[test]
    fn same_block_spawns_parallel() {
        let (sp, mut root) = SpOrder::new();
        let c1 = sp.fork(&mut root);
        let c2 = sp.fork(&mut root);
        sp.sync(&mut root);
        let s = root.pos();
        assert!(!sp.precedes_eq(c1.pos(), c2.pos()));
        assert!(!sp.precedes_eq(c2.pos(), c1.pos()));
        assert!(sp.precedes_eq(c1.pos(), s) && sp.precedes_eq(c2.pos(), s));
    }

    /// Both later-fork paths in one block: spawn, spawn (the continuation
    /// was never handed out, so it is reused), a look at the continuation,
    /// spawn (a fresh one is minted), spawn (reused again). Every child is
    /// parallel to every other and to the continuation that follows its
    /// spawn, the continuation seen before the third spawn precedes the
    /// last two children, and the post-sync strand follows everything.
    #[test]
    fn later_forks_reuse_only_an_unseen_continuation() {
        let (sp, mut root) = SpOrder::new();
        let c1 = sp.fork(&mut root).pos();
        let c2 = sp.fork(&mut root).pos();
        let k2 = root.pos();
        let c3 = sp.fork(&mut root).pos();
        let c4 = sp.fork(&mut root).pos();
        let k4 = root.pos();
        assert_eq!(sp.positions(), 1 + 3 + 1 + 2 + 1);
        sp.sync(&mut root);
        let s = root.pos();
        let children = [c1, c2, c3, c4];
        for (i, &a) in children.iter().enumerate() {
            for &b in &children[i + 1..] {
                assert!(!sp.precedes_eq(a, b) && !sp.precedes_eq(b, a));
            }
            assert!(sp.precedes_eq(a, s));
            assert!(!sp.precedes_eq(a, k4) && !sp.precedes_eq(k4, a));
        }
        assert!(!sp.precedes_eq(c2, k2) && !sp.precedes_eq(k2, c2));
        assert!(sp.precedes_eq(k2, c3) && sp.precedes_eq(k2, c4));
        assert!(sp.precedes_eq(k2, k4) && !sp.precedes_eq(k4, k2));
        assert!(sp.precedes_eq(k4, s));
    }

    /// Nested: child spawns a grandchild; grandchild ∥ parent's continuation
    /// but precedes the parent's post-sync strand.
    #[test]
    fn nested_fork_relations() {
        let (sp, mut root) = SpOrder::new();
        let mut c1 = sp.fork(&mut root);
        let k1 = root.pos();
        let d = sp.fork(&mut c1);
        let kd = c1.pos();
        sp.sync(&mut c1); // child's sync
        let c1_end = c1.pos();
        sp.sync(&mut root);
        let s1 = root.pos();

        assert!(
            !sp.precedes_eq(d.pos(), k1) && !sp.precedes_eq(k1, d.pos()),
            "d ∥ k1"
        );
        assert!(
            !sp.precedes_eq(d.pos(), kd) && !sp.precedes_eq(kd, d.pos()),
            "d ∥ kd"
        );
        assert!(sp.precedes_eq(d.pos(), c1_end));
        assert!(
            sp.precedes_eq(d.pos(), s1),
            "grandchild precedes parent's sync"
        );
        assert!(sp.precedes_eq(c1_end, s1));
    }

    /// Create (in PSP) behaves like spawn: created child precedes the
    /// block's sync position but is parallel to the continuation.
    #[test]
    fn create_joins_at_block_sync_in_psp() {
        let (sp, mut root) = SpOrder::new();
        let f = sp.fork(&mut root); // create
        let k = root.pos();
        // Later content of the future task:
        let mut fut = f;
        let inner = sp.fork(&mut fut);
        sp.sync(&mut fut);
        sp.sync(&mut root); // explicit sync joins the future in PSP
        let s = root.pos();
        assert!(!sp.precedes_eq(fut.pos(), k) && !sp.precedes_eq(k, fut.pos()));
        assert!(sp.precedes_eq(inner.pos(), s));
        assert!(sp.precedes_eq(fut.pos(), s));
    }

    /// An id resolves to the position it was minted for and to the future
    /// that owns it — the child's for its first strand, the forking task's
    /// for the continuation and the post-sync strand.
    #[test]
    fn ids_resolve_to_their_strand_positions() {
        let (sp, mut root) = SpOrder::new();
        let at = |t: &SpTask| (t.pos_id(), t.pos(), t.future());
        let mut seen = vec![at(&root)];
        let mut f = sp.fork_future(&mut root, FutureId(1));
        seen.extend([at(&f), at(&root)]);
        let c = sp.fork(&mut f);
        let d = sp.fork(&mut f);
        seen.extend([at(&c), at(&d), at(&f)]);
        sp.sync(&mut f);
        sp.sync(&mut root);
        seen.extend([at(&f), at(&root)]);
        assert_eq!(f.future(), FutureId(1));
        assert_eq!(c.future(), FutureId(1));
        for (id, pos, future) in &seen {
            assert_eq!(
                sp.resolve(*id),
                StrandPos {
                    sp: *pos,
                    future: *future
                }
            );
        }
        for a in &seen {
            for b in &seen {
                assert_eq!(a.0 == b.0, a.1 == b.1);
            }
        }
    }

    #[test]
    fn sync_without_fork_is_noop() {
        let (sp, mut root) = SpOrder::new();
        let before = root.pos();
        sp.sync(&mut root);
        assert_eq!(root.pos(), before);
    }

    #[test]
    fn reflexive_precedes() {
        let (sp, root) = SpOrder::new();
        assert!(sp.precedes_eq(root.pos(), root.pos()));
    }

    // The exhaustive cross-check against the dag oracle on random programs
    // is the workspace's ground-truth probe (`tests/ground_truth/`, run by
    // `oracle_props.rs`, `interning.rs` and `parallel_oracle.rs`), through
    // SF-Order and F-Order, which answer from this order.

    /// A later fork mints a continuation only when the current one was
    /// handed out: c alone when nobody saw k, c and k when someone did.
    #[test]
    fn positions_counter_tracks_oms() {
        for look in [false, true] {
            let (sp, mut root) = SpOrder::new();
            assert_eq!(sp.positions(), 1);
            sp.fork(&mut root);
            assert_eq!(sp.positions(), 4); // c, k, s added
            if look {
                root.pos();
            }
            sp.fork(&mut root);
            // c added; k too once it was seen.
            assert_eq!(sp.positions(), if look { 6 } else { 5 });
            // Each fork paid ONE insert op per list (run inserts), none of
            // which escalated to the global lock.
            let stats = sp.om_stats();
            assert_eq!(stats.fast_inserts, 4);
            assert_eq!(stats.global_escalations, 0);
        }
    }
}
