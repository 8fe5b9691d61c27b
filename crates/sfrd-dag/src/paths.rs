//! Path structure of SF-dags — executable checks of the paper's §3.3
//! structural lemmas.
//!
//! Lemma 3.2 (restated from Utterback et al.): whenever `u ;NSP v` in an
//! SF-dag, at least one path from `u` to `v` is **canonical** — a (possibly
//! empty) prefix using only get and SP edges, followed by a (possibly
//! empty) suffix using only create and SP edges; never a get edge after a
//! create edge. [`canonical_path`] constructs such a path, and the
//! property tests in this module verify the lemma on random programs —
//! which is exactly the property SF-Order's three-case query analysis
//! rests on.

use crate::graph::{Dag, EdgeKind};
use crate::ids::NodeId;

/// Is `path` canonical: no get edge after a create edge?
pub fn is_canonical(path: &[(NodeId, EdgeKind, NodeId)]) -> bool {
    let mut seen_create = false;
    for &(_, kind, _) in path {
        match kind {
            EdgeKind::CreateChild => seen_create = true,
            EdgeKind::GetReturn if seen_create => return false,
            _ => {}
        }
    }
    true
}

/// Find a canonical path from `u` to `v`, if any path exists at all.
/// Returns edges as `(from, kind, to)` triples.
///
/// Search state is `(node, phase)` where phase 0 still permits get edges
/// and phase 1 (entered at the first create edge) forbids them — a BFS over
/// a 2-layer product graph, O(V + E).
pub fn canonical_path(dag: &Dag, u: NodeId, v: NodeId) -> Option<Vec<(NodeId, EdgeKind, NodeId)>> {
    if u == v {
        return Some(Vec::new());
    }
    let n = dag.node_count();
    // parent[(node, phase)] = (prev node, prev phase, edge kind)
    let mut parent: Vec<Option<(NodeId, u8, EdgeKind)>> = vec![None; 2 * n];
    let idx = |node: NodeId, phase: u8| node.index() * 2 + phase as usize;
    let mut queue = std::collections::VecDeque::new();
    queue.push_back((u, 0u8));
    let mut visited = vec![false; 2 * n];
    visited[idx(u, 0)] = true;
    while let Some((x, phase)) = queue.pop_front() {
        for &(y, kind) in dag.succs(x) {
            let next_phase = match kind {
                EdgeKind::CreateChild => 1,
                EdgeKind::GetReturn if phase == 1 => continue, // not canonical
                EdgeKind::PspJoin => continue,                 // not a real edge
                _ => phase,
            };
            if visited[idx(y, next_phase)] {
                continue;
            }
            visited[idx(y, next_phase)] = true;
            parent[idx(y, next_phase)] = Some((x, phase, kind));
            if y == v {
                // Reconstruct (the dag is acyclic, so `u` is only ever the
                // search origin).
                let mut path = Vec::new();
                let (mut cur, mut ph) = (y, next_phase);
                while let Some((px, pph, kind)) = parent[idx(cur, ph)] {
                    path.push((px, kind, cur));
                    cur = px;
                    ph = pph;
                }
                debug_assert_eq!(cur, u);
                path.reverse();
                debug_assert!(is_canonical(&path));
                return Some(path);
            }
            queue.push_back((y, next_phase));
        }
    }
    None
}

/// Count edges of each kind along a path.
pub fn edge_census(path: &[(NodeId, EdgeKind, NodeId)]) -> (usize, usize, usize) {
    let mut sp = 0;
    let mut creates = 0;
    let mut gets = 0;
    for &(_, kind, _) in path {
        match kind {
            EdgeKind::CreateChild => creates += 1,
            EdgeKind::GetReturn => gets += 1,
            _ => sp += 1,
        }
    }
    (sp, creates, gets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;

    #[test]
    fn canonical_detector_accepts_and_rejects() {
        let a = NodeId(0);
        let b = NodeId(1);
        let c = NodeId(2);
        assert!(is_canonical(&[]));
        assert!(is_canonical(&[
            (a, EdgeKind::GetReturn, b),
            (b, EdgeKind::CreateChild, c)
        ]));
        assert!(!is_canonical(&[
            (a, EdgeKind::CreateChild, b),
            (b, EdgeKind::GetReturn, c)
        ]));
    }

    /// The canonical structure itself: gets-then-creates on a concrete
    /// cross-future path (future A gotten, then future B created).
    #[test]
    fn cross_future_path_is_get_then_create() {
        let (rec, mut root) = Recorder::new();
        let mut a = rec.create(&mut root);
        rec.access(&a, 1, true);
        rec.task_end(&mut a);
        rec.get(&mut root, &a);
        let mut b = rec.create(&mut root);
        rec.access(&b, 1, false);
        rec.task_end(&mut b);
        rec.task_end(&mut root);
        let recorded = rec.finish();
        let a_last = recorded.dag.future(crate::FutureId(1)).last.unwrap();
        let b_first = recorded.dag.future(crate::FutureId(2)).first;
        let p = canonical_path(&recorded.dag, a_last, b_first).expect("A ; B via the get");
        let (sp, creates, gets) = edge_census(&p);
        assert_eq!(gets, 1);
        assert_eq!(creates, 1);
        assert_eq!(sp, p.len() - 2);
        // Get edge must come before the create edge.
        let get_idx = p
            .iter()
            .position(|&(_, k, _)| k == EdgeKind::GetReturn)
            .unwrap();
        let create_idx = p
            .iter()
            .position(|&(_, k, _)| k == EdgeKind::CreateChild)
            .unwrap();
        assert!(get_idx < create_idx);
    }
}
