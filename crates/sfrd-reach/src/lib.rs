//! # sfrd-reach — reachability engines for determinacy race detection
//!
//! The three reachability analyses compared in the paper, behind
//! hook-shaped APIs the runtimes drive through `sfrd-core`'s detector
//! adapters:
//!
//! * [`sf_order::SfReach`] — **SF-Order** (this paper): O(1) queries from
//!   an SP-order over the pseudo-SP-dag plus `cp`/`gp` future bitmaps.
//!   Parallel-safe.
//! * [`f_order::FoReach`] — **F-Order** (Xu et al. 2020): general-futures
//!   baseline with per-strand hash tables of non-SP ancestor op nodes.
//!   Parallel-safe, higher construction/query cost.
//! * [`multibags::MbReach`] — **MultiBags** (Utterback et al. 2019):
//!   sequential-only SP-bags union-find specialization.
//!
//! Shared substrates: [`sp_order::SpOrder`] (English/Hebrew order
//! maintenance over `PSP(D)`), [`bitmap::FutureSet`] (future-id bitmaps:
//! an inline tail over an `Arc`-shared directory of 512-bit chunks) and a
//! local Fx-style hasher ([`hash`]). SF-Order and
//! F-Order keep one node per future in an [`sfrd_om::AppendArena`], whose
//! index is the future's id.
//!
//! Each engine names a strand's position two ways: the rich position its
//! queries work on ([`StrandPos`], [`MbPos`]) and the one-word [`Pos`] the
//! access history stores, which the engine resolves back ([`pos`]).
//!
//! ```
//! use sfrd_reach::SfReach;
//!
//! // root creates a future F, whose body runs in parallel with the
//! // continuation until the get.
//! let (reach, mut root) = SfReach::new();
//! let mut fut = reach.create(&mut root);
//! let inside_f = fut.pos();
//! reach.task_end(&mut fut);
//!
//! assert!(!reach.precedes(inside_f, &root), "F ∥ continuation");
//! reach.get(&mut root, &fut);
//! assert!(reach.precedes(inside_f, &root), "get serializes F before us");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bitmap;
pub mod f_order;
pub mod hash;
pub mod multibags;
pub mod pos;
pub mod sf_order;
pub mod sp_order;

pub use bitmap::{FutureSet, SetStats, SetStatsSnapshot};
pub use f_order::{FoReach, FoStrand};
pub use multibags::{MbPos, MbReach, MbStrand};
pub use pos::Pos;
pub use sf_order::{SfPos, SfReach, SfStrand};
pub use sp_order::{SpOrder, SpPos, SpTask, StrandPos};
