//! On-the-fly dag recorder.
//!
//! The detectors (and tests) drive the recorder with the same events the
//! runtime emits — spawn, sync, create, get, task end, memory access — and
//! it materializes the executed SF-dag, the access log, and the
//! `create → joining-sync` map that [`crate::graph::Dag::psp`] needs.
//!
//! The recorder is thread-safe (a parallel execution records the same dag a
//! sequential one would, up to node numbering) and is meant for tests,
//! statistics and debugging, not for production detection — the detectors
//! keep their own O(1)-per-event structures.

use parking_lot::Mutex;

use crate::graph::{Dag, EdgeKind, NodeKind, StructureError};
use crate::ids::{FutureId, NodeId};
use crate::oracle::{race_oracle, Access, RacePair};

/// Per-strand cursor handed back and forth with the recorder.
#[derive(Debug)]
pub struct RecStrand {
    /// Node currently being executed by this task.
    pub node: NodeId,
    /// Future the task belongs to.
    pub future: FutureId,
    /// True for the task that began this future (root task of the future);
    /// its final node is the future's put node.
    owns_future: bool,
    /// Futures created by this task since the last sync — these join the
    /// next sync node in `PSP(D)`.
    pending_creates: Vec<FutureId>,
}

struct RecInner {
    dag: Dag,
    psp_joins: Vec<(FutureId, NodeId)>,
    log: Vec<Access>,
}

/// Thread-safe recorder of an executing SF program.
pub struct Recorder {
    inner: Mutex<RecInner>,
}

/// Everything captured from one execution.
#[derive(Debug, Clone)]
pub struct RecordedProgram {
    /// The SF-dag that executed.
    pub dag: Dag,
    /// For each created future, the sync node that joins it in `PSP(D)`.
    pub psp_joins: Vec<(FutureId, NodeId)>,
    /// Shared-memory access log.
    pub log: Vec<Access>,
}

impl Recorder {
    /// Start recording; returns the root task's strand cursor.
    pub fn new() -> (Self, RecStrand) {
        let mut dag = Dag::new();
        let root = dag.add_node(FutureId::ROOT, NodeKind::First);
        let f = dag.add_future(root, None, None);
        debug_assert_eq!(f, FutureId::ROOT);
        let rec = Self {
            inner: Mutex::new(RecInner {
                dag,
                psp_joins: Vec::new(),
                log: Vec::new(),
            }),
        };
        let strand = RecStrand {
            node: root,
            future: FutureId::ROOT,
            owns_future: true,
            pending_creates: Vec::new(),
        };
        (rec, strand)
    }

    /// Record a `spawn`: ends the current node, starts the child's first
    /// node and the parent's continuation node.
    pub fn spawn(&self, s: &mut RecStrand) -> RecStrand {
        let mut inner = self.inner.lock();
        let child = inner.dag.add_node(s.future, NodeKind::First);
        let cont = inner.dag.add_node(s.future, NodeKind::Continuation);
        inner.dag.add_edge(s.node, child, EdgeKind::SpawnChild);
        inner.dag.add_edge(s.node, cont, EdgeKind::Continue);
        s.node = cont;
        RecStrand {
            node: child,
            future: s.future,
            owns_future: false,
            pending_creates: Vec::new(),
        }
    }

    /// Record a `create`: like spawn, but the child starts a fresh future.
    pub fn create(&self, s: &mut RecStrand) -> RecStrand {
        let mut inner = self.inner.lock();
        let fid = FutureId(inner.dag.future_count() as u32);
        let first = inner.dag.add_node(fid, NodeKind::First);
        let created = inner.dag.add_future(first, Some(s.node), Some(s.future));
        debug_assert_eq!(created, fid);
        let cont = inner.dag.add_node(s.future, NodeKind::Continuation);
        inner.dag.add_edge(s.node, first, EdgeKind::CreateChild);
        inner.dag.add_edge(s.node, cont, EdgeKind::Continue);
        s.node = cont;
        s.pending_creates.push(fid);
        RecStrand {
            node: first,
            future: fid,
            owns_future: true,
            pending_creates: Vec::new(),
        }
    }

    /// Record a `sync` joining the given completed spawned children.
    /// No-op (no new node) when nothing is outstanding — mirroring the
    /// detectors, which keep their strand unchanged in that case.
    pub fn sync(&self, s: &mut RecStrand, children: &[RecStrand]) {
        if children.is_empty() && s.pending_creates.is_empty() {
            return;
        }
        let mut inner = self.inner.lock();
        let j = inner.dag.add_node(s.future, NodeKind::Sync);
        inner.dag.add_edge(s.node, j, EdgeKind::Continue);
        for c in children {
            debug_assert_eq!(c.future, s.future, "sync joins same-future children only");
            debug_assert!(
                c.pending_creates.is_empty(),
                "child ended with unflushed creates"
            );
            inner.dag.add_edge(c.node, j, EdgeKind::SyncJoin);
        }
        for f in s.pending_creates.drain(..) {
            inner.psp_joins.push((f, j));
        }
        s.node = j;
    }

    /// Record a `get` of the future whose final strand is `done`.
    pub fn get(&self, s: &mut RecStrand, done: &RecStrand) {
        let mut inner = self.inner.lock();
        let g = inner.dag.add_node(s.future, NodeKind::Get);
        inner.dag.add_edge(s.node, g, EdgeKind::Continue);
        inner.dag.add_edge(done.node, g, EdgeKind::GetReturn);
        s.node = g;
    }

    /// Record the end of a task. Callers must have already performed the
    /// implicit sync for outstanding *spawned* children; outstanding
    /// `pending_creates` are flushed here to a fresh join node (the task-end
    /// implicit sync of `PSP(D)`).
    pub fn task_end(&self, s: &mut RecStrand) {
        let mut inner = self.inner.lock();
        if !s.pending_creates.is_empty() {
            let j = inner.dag.add_node(s.future, NodeKind::Sync);
            inner.dag.add_edge(s.node, j, EdgeKind::Continue);
            for f in s.pending_creates.drain(..) {
                inner.psp_joins.push((f, j));
            }
            s.node = j;
        }
        if s.owns_future {
            let fut = s.future;
            let node = s.node;
            inner.dag.set_future_last(fut, node);
        }
    }

    /// Record a shared-memory access by the strand.
    pub fn access(&self, s: &RecStrand, addr: u64, is_write: bool) {
        let mut inner = self.inner.lock();
        inner.log.push(Access {
            node: s.node,
            addr,
            is_write,
        });
        inner.dag.add_weight(s.node, 1);
    }

    /// Credit `n` accesses to the strand's current node without logging
    /// them: repeats a batch filter combined away at this position, which
    /// cannot change a verdict but are work the program did.
    pub fn credit(&self, s: &RecStrand, n: u64) {
        self.inner.lock().dag.add_weight(s.node, n);
    }

    /// Finish recording.
    pub fn finish(self) -> RecordedProgram {
        let inner = self.inner.into_inner();
        RecordedProgram {
            dag: inner.dag,
            psp_joins: inner.psp_joins,
            log: inner.log,
        }
    }
}

impl RecordedProgram {
    /// The pseudo-SP-dag of the recorded execution.
    pub fn psp(&self) -> Dag {
        self.dag.psp(&self.psp_joins)
    }

    /// Validate the structured-future restrictions.
    pub fn validate(&self) -> Result<(), StructureError> {
        self.dag.validate_structured()
    }

    /// Ground-truth race set of the recorded execution.
    pub fn races(&self) -> std::collections::BTreeSet<RacePair> {
        race_oracle(&self.dag, &self.log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::ReachOracle;

    /// root: create F; F spawns+syncs internally; root gets F.
    #[test]
    fn records_create_get_roundtrip() {
        let (rec, mut root) = Recorder::new();
        let mut fut = rec.create(&mut root);
        // inside the future: spawn + implicit-sync
        let mut child = rec.spawn(&mut fut);
        rec.access(&child, 0x10, true);
        rec.task_end(&mut child);
        rec.sync(&mut fut, &[child]);
        rec.task_end(&mut fut);
        rec.get(&mut root, &fut);
        rec.access(&root, 0x10, false);
        rec.task_end(&mut root);
        let prog = rec.finish();
        assert_eq!(prog.dag.future_count(), 2);
        prog.validate().unwrap();
        // The get edge sequences the future's write before the root's read.
        assert!(prog.races().is_empty());
        let o = ReachOracle::build(&prog.dag, |k| {
            k.is_sp() || k == EdgeKind::CreateChild || k == EdgeKind::GetReturn
        });
        let f_last = prog.dag.future(FutureId(1)).last.unwrap();
        // last(F) reaches the root's final node.
        let root_last = prog.dag.future(FutureId::ROOT).last.unwrap();
        assert!(o.reaches(f_last, root_last));
    }

    /// An ungotten (escaping) future races with the parent's parallel write.
    #[test]
    fn escaping_future_race_detected_by_oracle() {
        let (rec, mut root) = Recorder::new();
        let mut fut = rec.create(&mut root);
        rec.access(&fut, 0x20, true);
        rec.task_end(&mut fut);
        rec.access(&root, 0x20, true);
        rec.task_end(&mut root); // never gets the future
        let prog = rec.finish();
        prog.validate().unwrap();
        assert_eq!(prog.races().len(), 1);
        // In PSP, the future joins the root's task-end node.
        assert_eq!(prog.psp_joins.len(), 1);
        let psp = prog.psp();
        let o = ReachOracle::build(&psp, |_| true);
        let f_last = prog.dag.future(FutureId(1)).last.unwrap();
        let root_last = prog.dag.future(FutureId::ROOT).last.unwrap();
        assert!(
            o.reaches(f_last, root_last),
            "PSP must join the escaping future"
        );
    }

    #[test]
    fn sync_with_nothing_outstanding_is_noop() {
        let (rec, mut root) = Recorder::new();
        let before = root.node;
        rec.sync(&mut root, &[]);
        assert_eq!(root.node, before);
        rec.task_end(&mut root);
        let prog = rec.finish();
        assert_eq!(prog.dag.node_count(), 1);
    }

    #[test]
    fn explicit_sync_flushes_pending_creates_to_psp() {
        let (rec, mut root) = Recorder::new();
        let mut fut = rec.create(&mut root);
        rec.task_end(&mut fut);
        rec.sync(&mut root, &[]); // explicit sync: joins the create in PSP
        let sync_node = root.node;
        rec.get(&mut root, &fut);
        rec.task_end(&mut root);
        let prog = rec.finish();
        assert_eq!(prog.psp_joins, vec![(FutureId(1), sync_node)]);
    }

    #[test]
    fn weights_accumulate_on_current_node() {
        let (rec, mut root) = Recorder::new();
        rec.access(&root, 1, false);
        rec.access(&root, 2, false);
        rec.task_end(&mut root);
        let prog = rec.finish();
        let (work, span) = prog.dag.work_span();
        assert_eq!(work, 3); // base weight 1 + two accesses
        assert_eq!(span, 3);
        assert_eq!(prog.log.len(), 2);
    }
}
