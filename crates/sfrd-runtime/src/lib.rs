//! # sfrd-runtime — task-parallel runtimes for SF-Order
//!
//! Two runtimes behind one programming model (the [`Cx`] context trait):
//!
//! * [`parallel::Runtime`] — a work-stealing pool (child-stealing,
//!   work-helping joins) standing in for the paper's extended Cilk-F
//!   runtime; detectors plug in as [`TaskHooks`];
//! * [`sequential::run_sequential`] — the serial elision (left-to-right
//!   depth-first), required by the MultiBags baseline and used as the
//!   deterministic reference execution in tests.
//!
//! Programs express fork-join parallelism with [`Cx::spawn`]/[`Cx::sync`]
//! and structured futures with [`Cx::create`]/[`Cx::get`]; handles are
//! single-touch by construction (`get` consumes the handle), and the
//! "no race on the handle" restriction holds because handles flow only
//! along dag edges (Rust ownership).
//!
//! ```
//! use sfrd_runtime::{Cx, NullHooks, Runtime};
//! use std::sync::Arc;
//!
//! fn fib<'s, C: Cx<'s>>(ctx: &mut C, n: u64) -> u64 {
//!     if n < 2 {
//!         return n;
//!     }
//!     let h = ctx.create(move |c| fib(c, n - 1));
//!     let b = fib(ctx, n - 2);
//!     ctx.get(h) + b
//! }
//!
//! let rt: Runtime<NullHooks> = Runtime::new(2);
//! assert_eq!(rt.run(std::sync::Arc::new(NullHooks), |ctx| fib(ctx, 10)), 55);
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod chase_lev;
pub mod hooks;
#[cfg(sfrd_model)]
pub mod model;
pub mod parallel;
pub mod sequential;
pub mod sync;

pub use batch::{AccessBatch, BatchStats, BatchStrand, Batched, BatchedAccess, FILTER_WAYS};
pub use hooks::{Cx, NullHooks, TaskHooks};
pub use parallel::{FutureHandle, ParCtx, PoolStats, Runtime};
pub use sequential::{run_sequential, SeqCtx, SeqHandle};
