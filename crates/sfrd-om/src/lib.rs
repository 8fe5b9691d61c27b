//! # sfrd-om — order maintenance for SF-Order
//!
//! An [order-maintenance](https://en.wikipedia.org/wiki/Order-maintenance_problem)
//! list: a total order supporting
//!
//! * [`OmList::insert_after`] / [`OmList::insert_n_after`] /
//!   [`OmList::insert_n_before`] — insert one element (or a run of N)
//!   right after or right before an existing one, amortized O(1),
//!   **group-local**: the common case takes only the target group's
//!   spinlock, so inserts into different groups proceed in parallel;
//! * [`OmList::order`] / [`OmList::precedes`] — compare two elements, O(1),
//!   **lock-free** (queries may race with inserts and relabels; a seqlock
//!   makes them linearizable).
//!
//! SF-Order (and its SP-dag ancestor WSP-Order) performs reachability
//! analysis by keeping every executed strand in two such total orders — the
//! *English* (left-to-right depth-first) and *Hebrew* (right-to-left
//! depth-first) orders — and declaring two strands logically parallel iff
//! the two orders disagree about them. See `sfrd-reach::sp_order`.
//!
//! WSP-Order obtains amortized O(1) concurrent operation via specialized
//! work-stealing-runtime support for parallel rebalancing; this crate gets
//! most of the way there with a two-level scheme: per-group spinlocks keep
//! the insert fast path decentralized, a global mutex serializes only the
//! geometrically-rare relabels and splits (a split that finds no group
//! label free respaces the smallest sparse *range* of group labels around
//! it, never the whole list, which is what keeps inserts amortized O(1) in
//! rewritten keys), and queries stay lock-free throughout (DESIGN.md §5). [`OmList::stats`] exposes contention counters
//! ([`OmStats`]) so the decentralization is measurable end-to-end.
//!
//! ```
//! use sfrd_om::OmList;
//!
//! let (list, a) = OmList::new();
//! let c = list.insert_after(a);      // order: a, c
//! let b = list.insert_after(a);      // order: a, b, c
//! assert!(list.precedes(a, b));
//! assert!(list.precedes(b, c));
//! assert!(!list.precedes(c, a));
//! // Handles stay valid across arbitrary later insertions and relabels.
//! for _ in 0..10_000 {
//!     list.insert_after(a);
//! }
//! assert!(list.precedes(a, b) && list.precedes(b, c));
//! // The fast path dominates; the global lock is rarely touched.
//! let stats = list.stats();
//! assert!(stats.fast_inserts > stats.global_escalations);
//! ```

#![warn(missing_docs)]

mod arena;
mod list;

pub use arena::AppendArena;
pub use list::{OmHandle, OmList, OmStats};
