//! The computation-dag model of §2 of the paper.
//!
//! An execution of a program with `spawn`/`sync` and structured
//! `create`/`get` is an **SF-dag**: a set of series-parallel dags (one per
//! future task, the root task included) connected by non-SP `create` and
//! `get` edges. This module stores such dags explicitly so that tests can
//! compare the on-the-fly detectors against an exact offline oracle, and so
//! the **pseudo-SP-dag** `PSP(D)` transform of §3.1 can be materialized.

use crate::ids::{FutureId, NodeId};

/// Edge categories of an SF-dag.
///
/// `Continue`, `SpawnChild` and `SyncJoin` are *SP edges* (they connect
/// nodes of the same future task); `CreateChild` and `GetReturn` are the
/// *non-SP edges* of the paper. `PspJoin` edges exist only in pseudo-SP-dags
/// produced by [`Dag::psp`]: they are the "fake" implicit-sync edges from
/// the last node of a created future to the sync node that joins it in
/// `PSP(D)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Serial continuation within a strand sequence (`u → k`).
    Continue,
    /// `spawn` edge from the spawn node to the child's first node.
    SpawnChild,
    /// Join edge from a spawned child's last node into a sync node.
    SyncJoin,
    /// `create` edge from the create node to the created future's first node
    /// (non-SP).
    CreateChild,
    /// `get` edge from a future's put (last) node to the get node (non-SP).
    GetReturn,
    /// Fake implicit-sync edge, present only in pseudo-SP-dags.
    PspJoin,
}

impl EdgeKind {
    /// True for edges connecting nodes of the same future task.
    #[inline]
    pub fn is_sp(self) -> bool {
        matches!(
            self,
            EdgeKind::Continue | EdgeKind::SpawnChild | EdgeKind::SyncJoin
        )
    }
}

/// What role a node plays (diagnostic only — the algorithms never branch on
/// this, but error messages and DOT dumps do).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// First node of a future task (the root's source included).
    First,
    /// Continuation after a spawn or create.
    Continuation,
    /// Sync node (joins spawned children; in `PSP(D)` also created futures).
    Sync,
    /// Get node (joined by a future's put node).
    Get,
}

/// Per-node record.
#[derive(Debug, Clone)]
pub struct NodeInfo {
    /// Which future task the node belongs to.
    pub future: FutureId,
    /// Diagnostic role.
    pub kind: NodeKind,
    /// Work estimate attributed to this node (used for T1/T∞ accounting).
    pub weight: u64,
}

/// An explicit computation dag (SF-dag or pseudo-SP-dag).
#[derive(Debug, Clone, Default)]
pub struct Dag {
    nodes: Vec<NodeInfo>,
    /// Outgoing adjacency: `(target, kind)`.
    succs: Vec<Vec<(NodeId, EdgeKind)>>,
    /// Incoming adjacency: `(source, kind)`.
    preds: Vec<Vec<(NodeId, EdgeKind)>>,
    /// Per future: (first node, last node if finished, creating node if any).
    futures: Vec<FutureInfo>,
}

/// Book-keeping for one future task.
#[derive(Debug, Clone)]
pub struct FutureInfo {
    /// First node of the task.
    pub first: NodeId,
    /// Last (put) node; `None` until the task end is recorded.
    pub last: Option<NodeId>,
    /// The node that executed `create` (None for the root task).
    pub created_by: Option<NodeId>,
    /// The parent future (None for the root task).
    pub parent: Option<FutureId>,
}

impl Dag {
    /// Empty dag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node, returning its id.
    pub fn add_node(&mut self, future: FutureId, kind: NodeKind) -> NodeId {
        let id = NodeId(u32::try_from(self.nodes.len()).expect("dag too large"));
        self.nodes.push(NodeInfo {
            future,
            kind,
            weight: 1,
        });
        self.succs.push(Vec::new());
        self.preds.push(Vec::new());
        id
    }

    /// Register a future whose first node is `first`.
    pub fn add_future(
        &mut self,
        first: NodeId,
        created_by: Option<NodeId>,
        parent: Option<FutureId>,
    ) -> FutureId {
        let id = FutureId(u32::try_from(self.futures.len()).expect("too many futures"));
        self.futures.push(FutureInfo {
            first,
            last: None,
            created_by,
            parent,
        });
        id
    }

    /// Record the last (put) node of a future.
    pub fn set_future_last(&mut self, f: FutureId, last: NodeId) {
        self.futures[f.index()].last = Some(last);
    }

    /// Add a directed edge.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, kind: EdgeKind) {
        assert_ne!(from, to, "self edge");
        self.succs[from.index()].push((to, kind));
        self.preds[to.index()].push((from, kind));
    }

    /// Add `w` to a node's work weight.
    pub fn add_weight(&mut self, node: NodeId, w: u64) {
        self.nodes[node.index()].weight += w;
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of futures, root task included.
    pub fn future_count(&self) -> usize {
        self.futures.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.succs.iter().map(Vec::len).sum()
    }

    /// Node metadata.
    pub fn node(&self, n: NodeId) -> &NodeInfo {
        &self.nodes[n.index()]
    }

    /// Future metadata.
    pub fn future(&self, f: FutureId) -> &FutureInfo {
        &self.futures[f.index()]
    }

    /// Outgoing edges of `n`.
    pub fn succs(&self, n: NodeId) -> &[(NodeId, EdgeKind)] {
        &self.succs[n.index()]
    }

    /// Iterate all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterate all future ids.
    pub fn future_ids(&self) -> impl Iterator<Item = FutureId> + '_ {
        (0..self.futures.len() as u32).map(FutureId)
    }

    /// A topological order of the nodes (Kahn). Panics on cycles, which
    /// would indicate recorder corruption.
    pub fn topo_order(&self) -> Vec<NodeId> {
        let n = self.nodes.len();
        let mut indeg: Vec<u32> = vec![0; n];
        for (i, preds) in self.preds.iter().enumerate() {
            indeg[i] = preds.len() as u32;
        }
        let mut queue: Vec<NodeId> = indeg
            .iter()
            .enumerate()
            .filter(|(_, &d)| d == 0)
            .map(|(i, _)| NodeId(i as u32))
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(u) = queue.pop() {
            order.push(u);
            for &(v, _) in self.succs(u) {
                indeg[v.index()] -= 1;
                if indeg[v.index()] == 0 {
                    queue.push(v);
                }
            }
        }
        assert_eq!(order.len(), n, "cycle in recorded dag");
        order
    }

    /// Work (sum of node weights) and span (longest weighted path).
    pub fn work_span(&self) -> (u64, u64) {
        let order = self.topo_order();
        let mut dist: Vec<u64> = vec![0; self.nodes.len()];
        let mut work = 0u64;
        let mut span = 0u64;
        for &u in &order {
            let w = self.nodes[u.index()].weight;
            work += w;
            let d = dist[u.index()] + w;
            span = span.max(d);
            for &(v, _) in self.succs(u) {
                dist[v.index()] = dist[v.index()].max(d);
            }
        }
        (work, span)
    }

    /// The pseudo-SP-dag `PSP(D)` of §3.1: `create` edges become spawn
    /// edges, `get` edges are dropped, and every created future is joined
    /// back by a fake [`EdgeKind::PspJoin`] edge into the sync node given by
    /// `join_of` — the next sync of the creating task (the task-end implicit
    /// sync if no explicit one follows).
    ///
    /// `joins` maps each non-root future to its PSP join node; it is
    /// produced by the recorder, which knows the block structure.
    pub fn psp(&self, joins: &[(FutureId, NodeId)]) -> Dag {
        let mut out = self.clone();
        // Drop get edges.
        for succs in &mut out.succs {
            succs.retain(|&(_, k)| k != EdgeKind::GetReturn);
        }
        for preds in &mut out.preds {
            preds.retain(|&(_, k)| k != EdgeKind::GetReturn);
        }
        // Add the fake join edges.
        for &(f, join) in joins {
            let last = self.futures[f.index()]
                .last
                .expect("future without recorded last node in psp()");
            out.add_edge(last, join, EdgeKind::PspJoin);
        }
        out
    }

    /// Structured-future validation (§2 "Structured Future").
    ///
    /// Checks, on the recorded dag:
    /// 1. **single-touch** — at most one `GetReturn` edge leaves each
    ///    future's put node;
    /// 2. **no race on the handle** — for every gotten future `G` there is a
    ///    path from the node that created `G` to the get node that starts
    ///    with the continuation edge (i.e. does not enter `G`).
    pub fn validate_structured(&self) -> Result<(), StructureError> {
        let oracle = crate::oracle::ReachOracle::build(self, |k| k != EdgeKind::PspJoin);
        for f in self.future_ids() {
            let info = &self.futures[f.index()];
            let Some(last) = info.last else { continue };
            let gets: Vec<NodeId> = self
                .succs(last)
                .iter()
                .filter(|&&(_, k)| k == EdgeKind::GetReturn)
                .map(|&(g, _)| g)
                .collect();
            if gets.len() > 1 {
                return Err(StructureError::MultipleGets { future: f });
            }
            if let (Some(&get), Some(create)) = (gets.first(), info.created_by) {
                // The continuation successor of the create node.
                let cont = self
                    .succs(create)
                    .iter()
                    .find(|&&(_, k)| k == EdgeKind::Continue)
                    .map(|&(c, _)| c);
                let ok = match cont {
                    Some(c) => c == get || oracle.reaches(c, get),
                    None => false,
                };
                if !ok {
                    return Err(StructureError::GetNotAfterCreate { future: f, get });
                }
            }
        }
        Ok(())
    }

    /// Graphviz DOT dump (debugging aid).
    pub fn to_dot(&self) -> String {
        use std::fmt::Write;
        let mut s = String::from("digraph sfdag {\n  rankdir=TB;\n");
        for n in self.node_ids() {
            let info = self.node(n);
            writeln!(
                s,
                "  {} [label=\"{} {:?}\\n{}\"];",
                n.0, n, info.kind, info.future
            )
            .unwrap();
        }
        for n in self.node_ids() {
            for &(m, k) in self.succs(n) {
                let style = match k {
                    EdgeKind::CreateChild => " [color=red]",
                    EdgeKind::GetReturn => " [color=blue]",
                    EdgeKind::PspJoin => " [style=dashed]",
                    _ => "",
                };
                writeln!(s, "  {} -> {}{};", n.0, m.0, style).unwrap();
            }
        }
        s.push_str("}\n");
        s
    }
}

/// Violations of the structured-future restrictions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StructureError {
    /// `get` invoked more than once on the same future handle.
    MultipleGets {
        /// The offending future.
        future: FutureId,
    },
    /// No continuation path from the create node to the get node — the
    /// handle raced to a logically-parallel branch.
    GetNotAfterCreate {
        /// The offending future.
        future: FutureId,
        /// The get node in question.
        get: NodeId,
    },
}

impl std::fmt::Display for StructureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StructureError::MultipleGets { future } => {
                write!(
                    f,
                    "future {future} gotten more than once (single-touch violated)"
                )
            }
            StructureError::GetNotAfterCreate { future, get } => write!(
                f,
                "get node {get} of future {future} is not reachable from the create continuation"
            ),
        }
    }
}

impl std::error::Error for StructureError {}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny hand-built dag: root spawns a child, syncs.
    fn spawn_sync_dag() -> (Dag, [NodeId; 4]) {
        let mut d = Dag::new();
        let u = d.add_node(FutureId::ROOT, NodeKind::First);
        d.add_future(u, None, None);
        let c = d.add_node(FutureId::ROOT, NodeKind::First);
        let k = d.add_node(FutureId::ROOT, NodeKind::Continuation);
        let s = d.add_node(FutureId::ROOT, NodeKind::Sync);
        d.add_edge(u, c, EdgeKind::SpawnChild);
        d.add_edge(u, k, EdgeKind::Continue);
        d.add_edge(k, s, EdgeKind::Continue);
        d.add_edge(c, s, EdgeKind::SyncJoin);
        d.set_future_last(FutureId::ROOT, s);
        (d, [u, c, k, s])
    }

    #[test]
    fn counts_and_topo() {
        let (d, [u, c, k, s]) = spawn_sync_dag();
        assert_eq!(d.node_count(), 4);
        assert_eq!(d.edge_count(), 4);
        assert_eq!(d.future_count(), 1);
        let order = d.topo_order();
        let pos = |n: NodeId| order.iter().position(|&x| x == n).unwrap();
        assert!(pos(u) < pos(c));
        assert!(pos(u) < pos(k));
        assert!(pos(c) < pos(s));
        assert!(pos(k) < pos(s));
    }

    #[test]
    fn work_span_diamond() {
        let (mut d, [_, c, _, _]) = spawn_sync_dag();
        d.add_weight(c, 9); // c has weight 10 total
        let (work, span) = d.work_span();
        assert_eq!(work, 13); // 1 + 10 + 1 + 1
        assert_eq!(span, 12); // u -> c -> s
    }

    #[test]
    fn psp_drops_gets_adds_joins() {
        // root creates F, gets it immediately.
        let mut d = Dag::new();
        let u = d.add_node(FutureId::ROOT, NodeKind::First);
        d.add_future(u, None, None);
        let first = d.add_node(FutureId(1), NodeKind::First);
        let f = d.add_future(first, Some(u), Some(FutureId::ROOT));
        assert_eq!(f, FutureId(1));
        let k = d.add_node(FutureId::ROOT, NodeKind::Continuation);
        let g = d.add_node(FutureId::ROOT, NodeKind::Get);
        d.add_edge(u, first, EdgeKind::CreateChild);
        d.add_edge(u, k, EdgeKind::Continue);
        d.add_edge(k, g, EdgeKind::Continue);
        d.add_edge(first, g, EdgeKind::GetReturn);
        d.set_future_last(f, first);
        d.set_future_last(FutureId::ROOT, g);
        // In PSP, F joins at the root's task-end (node g here).
        let psp = d.psp(&[(f, g)]);
        assert!(psp
            .succs(first)
            .iter()
            .any(|&(n, k)| n == g && k == EdgeKind::PspJoin));
        assert!(!psp
            .succs(first)
            .iter()
            .any(|&(_, k)| k == EdgeKind::GetReturn));
        assert_eq!(psp.edge_count(), d.edge_count()); // one dropped, one added
    }

    #[test]
    fn validate_rejects_double_get() {
        let mut d = Dag::new();
        let u = d.add_node(FutureId::ROOT, NodeKind::First);
        d.add_future(u, None, None);
        let first = d.add_node(FutureId(1), NodeKind::First);
        let f = d.add_future(first, Some(u), Some(FutureId::ROOT));
        let k = d.add_node(FutureId::ROOT, NodeKind::Continuation);
        let g1 = d.add_node(FutureId::ROOT, NodeKind::Get);
        let g2 = d.add_node(FutureId::ROOT, NodeKind::Get);
        d.add_edge(u, first, EdgeKind::CreateChild);
        d.add_edge(u, k, EdgeKind::Continue);
        d.add_edge(k, g1, EdgeKind::Continue);
        d.add_edge(g1, g2, EdgeKind::Continue);
        d.add_edge(first, g1, EdgeKind::GetReturn);
        d.add_edge(first, g2, EdgeKind::GetReturn);
        d.set_future_last(f, first);
        assert_eq!(
            d.validate_structured(),
            Err(StructureError::MultipleGets { future: f })
        );
    }

    #[test]
    fn validate_rejects_get_in_parallel_branch() {
        // u creates F; u also spawned a sibling branch BEFORE the create that
        // performs the get — the get is not reachable from the continuation.
        let mut d = Dag::new();
        let u = d.add_node(FutureId::ROOT, NodeKind::First);
        d.add_future(u, None, None);
        let sib = d.add_node(FutureId::ROOT, NodeKind::First);
        let k0 = d.add_node(FutureId::ROOT, NodeKind::Continuation);
        d.add_edge(u, sib, EdgeKind::SpawnChild);
        d.add_edge(u, k0, EdgeKind::Continue);
        let first = d.add_node(FutureId(1), NodeKind::First);
        let f = d.add_future(first, Some(k0), Some(FutureId::ROOT));
        let k1 = d.add_node(FutureId::ROOT, NodeKind::Continuation);
        d.add_edge(k0, first, EdgeKind::CreateChild);
        d.add_edge(k0, k1, EdgeKind::Continue);
        // The *sibling* performs the get: no path from k1 to g.
        let g = d.add_node(FutureId::ROOT, NodeKind::Get);
        d.add_edge(sib, g, EdgeKind::Continue);
        d.add_edge(first, g, EdgeKind::GetReturn);
        d.set_future_last(f, first);
        assert!(matches!(
            d.validate_structured(),
            Err(StructureError::GetNotAfterCreate { .. })
        ));
    }

    #[test]
    fn validate_accepts_structured_use() {
        let mut d = Dag::new();
        let u = d.add_node(FutureId::ROOT, NodeKind::First);
        d.add_future(u, None, None);
        let first = d.add_node(FutureId(1), NodeKind::First);
        let f = d.add_future(first, Some(u), Some(FutureId::ROOT));
        let k = d.add_node(FutureId::ROOT, NodeKind::Continuation);
        let g = d.add_node(FutureId::ROOT, NodeKind::Get);
        d.add_edge(u, first, EdgeKind::CreateChild);
        d.add_edge(u, k, EdgeKind::Continue);
        d.add_edge(k, g, EdgeKind::Continue);
        d.add_edge(first, g, EdgeKind::GetReturn);
        d.set_future_last(f, first);
        assert_eq!(d.validate_structured(), Ok(()));
    }

    #[test]
    fn dot_output_mentions_edges() {
        let (d, _) = spawn_sync_dag();
        let dot = d.to_dot();
        assert!(dot.contains("digraph"));
        assert!(dot.contains("0 -> 1"));
    }
}
