//! Slab arena for per-future reach nodes, keyed by `FutureId` index.
//!
//! Engines used to scatter per-future state across individually
//! allocated `Arc`s hanging off whichever strand happened to create the
//! future; a get-chain traversal therefore chased pointers through the
//! allocator's free-list order. [`NodeArena`] replaces that with
//! bump-allocated **slabs**: a fixed directory of lazily allocated
//! [`SLAB_NODES`]-entry blocks, so nodes of nearby future ids live in
//! the same contiguous allocation and the directory walk is two array
//! indexings.
//!
//! Concurrency and lifetime (the soundness story, also in DESIGN.md
//! §11): everything is safe Rust built on `OnceLock`.
//!
//! * Slabs and slots are published with `OnceLock::set` /
//!   `get_or_init`, whose release/acquire pairing guarantees any thread
//!   that observes a slot initialized also observes the node value
//!   fully written. A future id only reaches other threads through a
//!   channel that already orders the `create` event before the use (the
//!   id travels inside `cp`/`gp` sets or shadow entries), so `get` on a
//!   published id never races its `set`.
//! * Nodes are never moved or freed while the engine lives: `get`
//!   returns `&T` borrowed from the arena, and the borrow checker pins
//!   it to the engine's lifetime. "Bump-allocated nodes never dangle
//!   across a run" is thus enforced by construction, not by discipline —
//!   there is no deallocation path short of dropping the whole engine.
//! * Ids are minted by a single `fetch_add` counter, so `set` is called
//!   at most once per index; a second call panics loudly instead of
//!   silently racing.
//!
//! The directory is sized for [`MAX_NODES`] futures (compile-time
//! constant, asserted at `set`); the per-engine eager cost is the
//! directory itself (~64 KiB), on par with the paged shadow's root
//! table.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// log2 of nodes per slab.
const SLAB_BITS: u32 = 8;
/// Nodes per slab (one bump allocation).
pub const SLAB_NODES: usize = 1 << SLAB_BITS;
/// Directory capacity in slabs.
const MAX_SLABS: usize = 1 << 12;
/// Total node capacity of one arena.
pub const MAX_NODES: usize = MAX_SLABS * SLAB_NODES;

/// One lazily allocated block of [`SLAB_NODES`] once-writable slots.
type Slab<T> = Box<[OnceLock<T>]>;

/// A concurrent, append-only slab arena indexed by dense `u32` ids.
pub struct NodeArena<T> {
    slabs: Box<[OnceLock<Slab<T>>]>,
    slabs_allocated: AtomicU64,
}

impl<T> Default for NodeArena<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> NodeArena<T> {
    /// An empty arena (allocates only the slab directory).
    pub fn new() -> Self {
        Self {
            slabs: (0..MAX_SLABS).map(|_| OnceLock::new()).collect(),
            slabs_allocated: AtomicU64::new(0),
        }
    }

    #[inline]
    fn split(idx: u32) -> (usize, usize) {
        (idx as usize >> SLAB_BITS, idx as usize & (SLAB_NODES - 1))
    }

    /// The node at `idx`, if published.
    #[inline]
    pub fn get(&self, idx: u32) -> Option<&T> {
        let (si, ei) = Self::split(idx);
        self.slabs.get(si)?.get()?[ei].get()
    }

    /// Publish the node for `idx`. Panics on capacity overflow or
    /// double initialization (ids are minted by a unique counter).
    pub fn set(&self, idx: u32, value: T) {
        let (si, ei) = Self::split(idx);
        assert!(si < MAX_SLABS, "NodeArena capacity exceeded at id {idx}");
        let slab = self.slabs[si].get_or_init(|| {
            self.slabs_allocated.fetch_add(1, Ordering::Relaxed);
            (0..SLAB_NODES).map(|_| OnceLock::new()).collect()
        });
        if slab[ei].set(value).is_err() {
            panic!("NodeArena slot {idx} initialized twice");
        }
    }

    /// Number of slabs bump-allocated so far.
    fn slabs_allocated(&self) -> u64 {
        self.slabs_allocated.load(Ordering::Relaxed)
    }

    /// Resident bytes: the directory plus every allocated slab's block
    /// (slot storage only; what nodes themselves point at is accounted
    /// by the caller's own heap audit).
    pub fn heap_bytes(&self) -> usize {
        self.slabs.len() * std::mem::size_of::<OnceLock<Box<[OnceLock<T>]>>>()
            + self.slabs_allocated() as usize * SLAB_NODES * std::mem::size_of::<OnceLock<T>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_then_get_roundtrips() {
        let a: NodeArena<String> = NodeArena::new();
        assert_eq!(a.slabs_allocated(), 0);
        assert!(a.get(0).is_none());
        a.set(0, "root".into());
        a.set(700, "far".into());
        assert_eq!(a.get(0).map(String::as_str), Some("root"));
        assert_eq!(a.get(700).map(String::as_str), Some("far"));
        assert!(a.get(1).is_none());
        // 0 and 700 live in different slabs (700 >= SLAB_NODES).
        assert_eq!(a.slabs_allocated(), 2);
        assert!(a.heap_bytes() > 0);
    }

    #[test]
    fn dense_ids_share_slabs() {
        let a: NodeArena<u32> = NodeArena::new();
        for i in 0..SLAB_NODES as u32 {
            a.set(i, i * 2);
        }
        assert_eq!(a.slabs_allocated(), 1, "one slab holds SLAB_NODES nodes");
        assert!((0..SLAB_NODES as u32).all(|i| a.get(i) == Some(&(i * 2))));
    }

    #[test]
    #[should_panic(expected = "initialized twice")]
    fn double_set_panics() {
        let a: NodeArena<u8> = NodeArena::new();
        a.set(3, 1);
        a.set(3, 2);
    }

    #[test]
    fn concurrent_publication_is_visible() {
        let a = std::sync::Arc::new(NodeArena::<u32>::new());
        let n = 64u32;
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let a = std::sync::Arc::clone(&a);
                std::thread::spawn(move || {
                    for i in 0..n {
                        a.set(t * n + i, t * n + i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for idx in 0..4 * n {
            assert_eq!(a.get(idx), Some(&idx));
        }
    }
}
